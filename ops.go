package steghide

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"steghide/internal/wire"
)

// ServerConfig gathers the knobs `steghide agent` used to sprawl over
// individual flags into one value a daemon is built from. The zero
// value of every optional field means "off": no ops endpoint, no
// metrics, no logging, default drain bound.
type ServerConfig struct {
	// Addr is the wire listen address (required unless the server is
	// built over an existing listener).
	Addr string
	// HTTPAddr, when non-empty, serves the ops endpoint: /metrics
	// (Prometheus text), /healthz (200, or 503 while draining),
	// /debug/vars (JSON), and /debug/pprof. The endpoint is
	// operator-facing and unauthenticated — bind it to localhost or a
	// management network, never the public interface. Everything it
	// can disclose is leakage-audited in DESIGN.md.
	HTTPAddr string
	// DrainTimeout bounds Shutdown's graceful drain; <= 0 selects 10s.
	DrainTimeout time.Duration
	// Metrics, when set, instruments the wire server and feeds
	// /metrics and /debug/vars. Attach the same registry to the served
	// stacks (WithMetrics) for the full picture.
	Metrics *Metrics
	// Logger, when set, receives structured connection-lifecycle
	// events: accept, hello version negotiated, login volume, logout,
	// goaway, drain, transport fault. Hidden pathnames, passphrases
	// and locator secrets never reach a log line.
	Logger *slog.Logger
}

// Server is a wire daemon plus its optional ops HTTP endpoint,
// built by NewServer from a ServerConfig.
type Server struct {
	cfg    ServerConfig
	agent  *AgentServer
	httpLn net.Listener
	http   *http.Server
}

// NewServer serves the stacks' agents per cfg: the wire protocol on
// cfg.Addr and, when cfg.HTTPAddr is set, the ops endpoint beside it.
// Every stack must be Construction 2, registered under its
// WithVolumeName. Closing the server does not close the stacks.
func NewServer(cfg ServerConfig, stacks ...*Stack) (*Server, error) {
	if cfg.Addr == "" {
		return nil, errors.New("steghide: ServerConfig.Addr is required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("steghide: listen: %w", err)
	}
	s, err := NewServerListener(cfg, ln, stacks...)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return s, nil
}

// NewServerListener is NewServer over an established wire listener
// (socket activation, tests, fault-injecting wrappers); cfg.Addr is
// ignored. The server owns ln.
func NewServerListener(cfg ServerConfig, ln net.Listener, stacks ...*Stack) (*Server, error) {
	vols, err := serveVolumes(stacks)
	if err != nil {
		return nil, err
	}
	agent, err := wire.NewAgentServer(ln, vols, wire.ServeOptions{
		Logger:  cfg.Logger,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, agent: agent}
	if cfg.HTTPAddr != "" {
		if err := s.startOps(); err != nil {
			agent.Close()
			return nil, err
		}
	}
	return s, nil
}

// startOps brings the ops HTTP listener up.
func (s *Server) startOps() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("steghide: ops listen: %w", err)
	}
	s.httpLn = ln
	s.http = &http.Server{Handler: s.opsMux()}
	go s.http.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("ops: endpoint up", "addr", ln.Addr().String())
	}
	return nil
}

// opsMux builds the ops endpoint's routes.
func (s *Server) opsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Metrics == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.cfg.Metrics.WritePrometheus(w) //nolint:errcheck // client gone
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.agent.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Metrics == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		s.cfg.Metrics.WriteJSON(w) //nolint:errcheck // client gone
	})
	// pprof on the same mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Agent returns the underlying wire server.
func (s *Server) Agent() *AgentServer { return s.agent }

// Addr returns the wire listen address.
func (s *Server) Addr() string { return s.agent.Addr() }

// Volumes lists the served volume names ("" is the default volume).
func (s *Server) Volumes() []string { return s.agent.Volumes() }

// HTTPAddr returns the ops endpoint's address ("" when disabled) —
// useful when cfg.HTTPAddr was ":0".
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Shutdown drains gracefully: /healthz flips to 503 and v2 peers get
// goaway immediately, in-flight wire requests finish (bounded by
// cfg.DrainTimeout unless ctx is tighter), then the ops endpoint
// closes. A nil error means the drain completed inside the bound.
func (s *Server) Shutdown(ctx context.Context) error {
	d := s.cfg.DrainTimeout
	if d <= 0 {
		d = 10 * time.Second
	}
	dctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	err := s.agent.Shutdown(dctx)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// The drain bound expiring is the configured abrupt-close
		// fallback, not a caller error.
		err = nil
	}
	s.closeOps()
	return err
}

// Close stops both listeners without draining.
func (s *Server) Close() error {
	err := s.agent.Close()
	s.closeOps()
	return err
}

func (s *Server) closeOps() {
	if s.http != nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.http.Shutdown(sctx) //nolint:errcheck // best-effort
		s.http = nil
		s.httpLn = nil
	}
}
