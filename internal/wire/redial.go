package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"steghide/internal/prng"
)

// ErrMaybeApplied reports a mutating request that may or may not have
// reached the server before the transport died: at least one byte of
// the frame was (or may have been) written, so blindly retrying could
// apply the update twice. The caller must reconcile — re-read the
// affected state, or re-issue only an idempotent form. Read-class
// requests never report this; they retry transparently.
var ErrMaybeApplied = errors.New("wire: request may have been applied; not retried")

// RetryPolicy bounds the self-healing client's reconnect behavior.
// The zero value means "defaults": a small retry budget with
// exponential backoff. Jitter is drawn from a deterministic stream
// seeded by JitterSeed, for the same reason every other random choice
// in this codebase is seeded: runs replay bit-identically, including
// their failure recovery.
type RetryPolicy struct {
	// MaxRetries is the per-call redial budget: how many times one
	// logical call may be re-attempted after a transport fault.
	// <= 0 means the default (4).
	MaxRetries int
	// BaseBackoff is the first retry's backoff; each further retry
	// doubles it up to MaxBackoff. <= 0 means the default (25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. <= 0 means the
	// default (1s).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter stream. Any value is
	// valid; two clients with different seeds desynchronize their
	// retry storms, two runs with the same seed replay identically.
	JitterSeed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	return p
}

// backoff is the pre-jitter delay before retry attempt (0-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	return min(d, p.MaxBackoff)
}

// Redialer keeps one live muxConn on behalf of a client, replacing it
// when it breaks or the server announces a drain. Calls route through
// call, which classifies failures: transient transport faults redial
// (singleflight — concurrent callers share one dial) and retry under
// the policy's budget; remote taxonomy errors, cancellations, and
// local closes pass straight through; a mutating request that may
// have reached the server surfaces ErrMaybeApplied instead of
// retrying.
type Redialer struct {
	policy RetryPolicy
	addrs  []string // dial targets, rotated on failure and drain

	// onConnect replays session state (hello is already done by the
	// dialer; this layer re-runs login and disclosures) on every fresh
	// connection before any caller sees it. It must speak raw frames
	// on m — calling back into the Redialer would deadlock the
	// singleflight dial.
	onConnect func(ctx context.Context, m *muxConn) error

	mu      sync.Mutex
	conn    *muxConn
	dialing chan struct{} // non-nil while one caller dials for everyone
	closed  bool
	next    int // addr rotation cursor
	rng     *prng.PRNG
}

// newRedialer builds a Redialer over one or more addresses. The first
// address is preferred; the cursor advances past addresses that fail
// and past servers that announce a drain.
func newRedialer(policy RetryPolicy, onConnect func(context.Context, *muxConn) error, addrs []string) *Redialer {
	p := policy.withDefaults()
	return &Redialer{
		policy:    p,
		addrs:     addrs,
		onConnect: onConnect,
		rng:       prng.NewFromUint64(p.JitterSeed).Child("wire/redial-jitter"),
	}
}

// dial makes the first connection, retrying transient failures under
// the policy's budget, so a client can start before its server is up.
// A failed dial closes the Redialer.
func (r *Redialer) dial(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		_, err := r.acquire(ctx)
		if err == nil {
			return nil
		}
		if transient(err) && attempt < r.policy.MaxRetries {
			err = r.sleep(ctx, attempt)
		}
		if err != nil {
			r.close() //nolint:errcheck // nothing live yet
			return err
		}
	}
}

// transient reports whether err is a transport-level fault worth a
// redial: a broken connection, a dial failure (the server may be
// restarting), or a torn handshake. Remote taxonomy errors mean the
// server answered — the connection is fine and the answer is final.
// Context errors are the caller's decision, never retried.
func transient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, errConnClosed):
		return false // local Close is deliberate
	case errors.Is(err, ErrRemote):
		return false // the server answered; retrying re-asks a settled question
	case errors.Is(err, ErrConnBroken):
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return true // handshake torn mid-frame
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// do runs one request with retry. idempotent marks requests that are
// safe to re-send even if the server already executed them (reads,
// stats, listings, login, ping); a non-idempotent request is re-sent
// only when the fault provably preceded its first byte on the wire,
// and otherwise fails with ErrMaybeApplied wrapping the transport
// fault. The request's lease ends with the call (see muxConn.call).
func (r *Redialer) do(ctx context.Context, req frame, idempotent bool) (frame, error) {
	defer req.release()
	for attempt := 0; ; attempt++ {
		m, err := r.acquire(ctx)
		if err == nil {
			var resp frame
			var sent bool
			resp, sent, err = m.callT(ctx, req)
			if err == nil {
				return resp, nil
			}
			if !transient(err) {
				return frame{}, err
			}
			r.invalidate(m)
			if sent && !idempotent {
				return frame{}, fmt.Errorf("%w: %w", ErrMaybeApplied, err)
			}
		} else if !transient(err) {
			return frame{}, err
		}
		if attempt >= r.policy.MaxRetries {
			return frame{}, err
		}
		if serr := r.sleep(ctx, attempt); serr != nil {
			return frame{}, serr
		}
	}
}

// sleep blocks for the attempt's jittered backoff, honoring ctx: a
// cancellation mid-backoff abandons the retry promptly (and, because
// dialing happens inline in the caller's goroutine, leaves nothing
// behind to leak).
func (r *Redialer) sleep(ctx context.Context, attempt int) error {
	d := r.policy.backoff(attempt)
	// Jitter into [d/2, d]: desynchronizes a thundering herd without
	// ever collapsing the delay to zero.
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	d = d/2 + time.Duration(f*float64(d/2))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("wire: %w", ctx.Err())
	}
}

// acquire returns a healthy connection, dialing one if needed. Only
// one caller dials at a time; the rest wait on its outcome and
// re-check, so a burst of concurrent calls after a fault produces one
// reconnect, not a stampede.
func (r *Redialer) acquire(ctx context.Context) (*muxConn, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, errConnClosed
		}
		if r.conn != nil && r.conn.healthy() {
			m := r.conn
			r.mu.Unlock()
			return m, nil
		}
		if r.conn != nil {
			// Stale. A draining server still owes replies to in-flight
			// requests on this connection, so leave it open (the server
			// closes it once drained) and aim the next dial elsewhere; a
			// faulted connection is torn down (idempotent close).
			old := r.conn
			r.conn = nil
			if old.draining() {
				r.next++
			} else {
				old.close() //nolint:errcheck // already dead
			}
		}
		if r.dialing != nil {
			// Someone else is dialing; wait for their verdict, then
			// re-check from the top.
			done := r.dialing
			r.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, fmt.Errorf("wire: %w", ctx.Err())
			}
			continue
		}
		done := make(chan struct{})
		r.dialing = done
		addr := r.addrs[r.next%len(r.addrs)]
		r.mu.Unlock()

		m, err := r.dialOne(ctx, addr)

		r.mu.Lock()
		r.dialing = nil
		close(done)
		if err != nil {
			r.next++ // try the next address on the next attempt
			r.mu.Unlock()
			return nil, err
		}
		if r.closed {
			r.mu.Unlock()
			m.close() //nolint:errcheck // racing Close wins
			return nil, errConnClosed
		}
		r.conn = m
		r.mu.Unlock()
		return m, nil
	}
}

// dialOne establishes and initializes one connection: dial, hello
// negotiation, then the onConnect session replay.
func (r *Redialer) dialOne(ctx context.Context, addr string) (*muxConn, error) {
	m, err := dialMux(ctx, addr, maxBodySize)
	if err != nil {
		return nil, err
	}
	if err := r.onConnect(ctx, m); err != nil {
		m.close() //nolint:errcheck // discarding a half-built conn
		return nil, err
	}
	return m, nil
}

// invalidate drops m if it is still the current connection, so the
// next acquire dials fresh. Close is idempotent; racing invalidations
// are harmless.
func (r *Redialer) invalidate(m *muxConn) {
	r.mu.Lock()
	if r.conn == m {
		r.conn = nil
	}
	r.mu.Unlock()
	m.close() //nolint:errcheck // already broken
}

// close shuts the Redialer down: no further dials, and the live
// connection (if any) is closed. Idempotent and safe to call
// concurrently with in-flight calls, which fail with errConnClosed.
func (r *Redialer) close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	m := r.conn
	r.conn = nil
	r.mu.Unlock()
	if m != nil {
		return m.close()
	}
	return nil
}
