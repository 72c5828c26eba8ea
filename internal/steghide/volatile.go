package steghide

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"steghide/internal/obs"
	"steghide/internal/prng"
	"steghide/internal/sched"
	"steghide/internal/sealer"
	"steghide/internal/stegfs"
)

// VolatileAgent is Construction 2 (§4.2, "StegHide" — the construction
// the paper implemented as a real file system). The agent keeps no
// persistent secrets: it boots knowing nothing, learns files as users
// disclose FAKs at login, and forgets everything at logout. Every
// block it knows belongs to some disclosed file — real files (whose
// data, header and pointer blocks it can reseal with the disclosed
// keys) or dummy files (whose blocks are meaningless random bytes it
// may overwrite freely and, crucially, relocate data into).
//
// Concurrency model (see also DESIGN.md):
//
//   - The Figure-6 draw loop and all update I/O live in the per-volume
//     scheduler; its sharded block locks let sessions and the dummy
//     daemon overlap their crypto and device work on different blocks.
//   - mu guards the disclosed-block registry (known/list/pos,
//     dummyData), the session table, and the in-memory block maps of
//     dummy files — the state every relocation and allocation touches.
//     Critical sections are memory-only and tiny.
//   - Each Session serializes its own file operations (stegfs.File is
//     single-writer); different sessions run concurrently.
//   - structMu divides operations into a data plane (Write, Read,
//     Truncate, Save of a real file, Disclose of a path already held,
//     dummy traffic — shared lock) and a control plane (Login, Logout,
//     Create, CreateDummy, first Disclose, Save of a dummy file,
//     Delete — exclusive lock), so structural changes to disclosure
//     never interleave with in-flight updates.
type VolatileAgent struct {
	structMu sync.RWMutex

	mu        sync.Mutex
	vol       *stegfs.Volume
	rng       *prng.PRNG // guarded by mu
	known     map[uint64]*ownerInfo
	list      []uint64
	pos       map[uint64]int
	dummyData uint64 // count of relocatable dummy-data blocks
	sessions  map[string]*Session

	// Per-login capacity quotas (guarded by mu). usage counts every
	// block registered to a login — real, dummy and pending alike, so
	// the budget bounds a user's total disclosed footprint and deleting
	// a file (whose blocks stay as the user's cover) frees nothing.
	// quota holds per-login overrides; defaultQuota applies to the
	// rest; zero means unlimited.
	usage        map[string]uint64
	quota        map[string]uint64
	defaultQuota uint64

	sched *sched.Scheduler

	// jc2 is the journal adapter (nil without EnableJournal); recov is
	// the armed post-crash resolution state (nil after a clean boot or
	// once fully consumed). Both guarded by mu.
	jc2   *c2Intents
	recov *c2Recovery
}

// ownerInfo records what the agent may do with a disclosed block.
type ownerInfo struct {
	file *stegfs.File
	user string
	// seal re-encrypts the block for camouflage updates: the content
	// sealer for data blocks, the header sealer for header/pointer
	// blocks, nil for dummy-data blocks (freshly drawn random bytes
	// are the reseal of meaningless content).
	seal *sealer.Sealer
	// dummy marks a relocatable dummy-data block.
	dummy bool
	// pending marks a block acquired mid-operation whose final role
	// is not yet classified; it is skipped as a camouflage target.
	pending bool
	// reloc remembers the dummy file a pending relocation target was
	// withdrawn from, so the swap can complete (the vacated block
	// joins that file) or abort (the target returns to it).
	reloc *stegfs.File
}

// NewVolatile creates an empty volatile agent over a volume.
func NewVolatile(vol *stegfs.Volume, rng *prng.PRNG) *VolatileAgent {
	a := &VolatileAgent{
		vol:      vol,
		rng:      rng.Child("figure6-volatile"),
		known:    map[uint64]*ownerInfo{},
		pos:      map[uint64]int{},
		sessions: map[string]*Session{},
		usage:    map[string]uint64{},
		quota:    map[string]uint64{},
	}
	a.sched = sched.New(vol, &volatileSpace{a: a})
	return a
}

// Vol returns the underlying volume.
func (a *VolatileAgent) Vol() *stegfs.Volume { return a.vol }

// Stats returns a snapshot of the agent's counters.
func (a *VolatileAgent) Stats() UpdateStats { return statsFromSched(a.sched.Stats()) }

// ResetStats zeroes the counters.
func (a *VolatileAgent) ResetStats() { a.sched.ResetStats() }

// DataSeq reports the monotonically increasing data-update count —
// the activity signal the adaptive dummy-traffic daemon watches.
func (a *VolatileAgent) DataSeq() uint64 { return a.sched.DataSeq() }

// EnableMetrics exports the agent's observability series through reg:
// the scheduler's stream counters and histograms, the journal ring's
// occupancy (when journaled), and a live session-count gauge. Call
// after EnableJournal so every layer is covered, and before concurrent
// use. Series are labeled by volume name only —
// usernames, pathnames and locator material never reach the registry
// (the session gauge is a count; login frames are wire-visible
// anyway, their number discloses nothing new).
func (a *VolatileAgent) EnableMetrics(reg *obs.Registry, volume string) {
	a.sched.EnableMetrics(reg, volume)
	a.mu.Lock()
	jc := a.jc2
	a.mu.Unlock()
	if jc != nil {
		jc.j.EnableMetrics(reg, volume)
	}
	reg.GaugeFunc("steghide_sessions",
		"users currently logged in", func() float64 {
			return float64(len(a.Users()))
		}, "volume", volume)
}

// KnownBlocks returns how many blocks the agent currently knows.
func (a *VolatileAgent) KnownBlocks() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.list)
}

// DummyBlocks returns how many relocatable dummy blocks are visible.
func (a *VolatileAgent) DummyBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dummyData
}

// --- block registry -------------------------------------------------

// register records loc's ownership; the caller holds a.mu. A block the
// registry already knows keeps its entry and has it overwritten — every
// draw that lands on a dummy block and every commit re-registers a known
// block, and a fresh heap object for each was most of what an update
// allocated. Overwriting is safe because no *ownerInfo outlives the
// a.mu critical section that looked it up: nothing stores one outside
// a.known, a caller's new entry is built from the old one before the
// call, and CommitRelocate, which reads two entries across two
// registrations, copies them out first.
func (a *VolatileAgent) register(loc uint64, info ownerInfo) {
	if old, ok := a.known[loc]; ok {
		if old.dummy {
			a.dummyData--
		}
		// A block that stays with its login — every relocation, every
		// re-registration — moves no charge.
		if old.user != info.user {
			a.chargeLocked(old.user, -1)
			a.chargeLocked(info.user, +1)
		}
		*old = info
	} else {
		fresh := new(ownerInfo)
		*fresh = info
		a.known[loc] = fresh
		a.pos[loc] = len(a.list)
		a.list = append(a.list, loc)
		a.chargeLocked(info.user, +1)
	}
	if info.dummy {
		a.dummyData++
	}
}

// unregister forgets loc; the caller holds a.mu.
func (a *VolatileAgent) unregister(loc uint64) {
	info, ok := a.known[loc]
	if !ok {
		return
	}
	if info.dummy {
		a.dummyData--
	}
	a.chargeLocked(info.user, -1)
	delete(a.known, loc)
	i := a.pos[loc]
	last := len(a.list) - 1
	if i != last {
		moved := a.list[last]
		a.list[i] = moved
		a.pos[moved] = i
	}
	a.list = a.list[:last]
	delete(a.pos, loc)
}

// --- per-login quotas -------------------------------------------------

// chargeLocked adjusts a login's block-usage counter; the caller holds
// a.mu. Blocks with no recorded login (crash limbo) are not charged.
func (a *VolatileAgent) chargeLocked(user string, delta int) {
	if user == "" {
		return
	}
	if delta > 0 {
		a.usage[user] += uint64(delta)
		return
	}
	if a.usage[user] >= uint64(-delta) {
		a.usage[user] -= uint64(-delta)
	} else {
		a.usage[user] = 0
	}
}

// quotaLocked returns the effective block budget for a login (0 =
// unlimited); the caller holds a.mu.
func (a *VolatileAgent) quotaLocked(user string) uint64 {
	if q, ok := a.quota[user]; ok {
		return q
	}
	return a.defaultQuota
}

// overBudgetLocked reports whether charging need more blocks to the
// login would exceed its budget; the caller holds a.mu.
func (a *VolatileAgent) overBudgetLocked(user string, need uint64) bool {
	q := a.quotaLocked(user)
	return q != 0 && a.usage[user]+need > q
}

// SetDefaultQuota sets the block budget applied to logins without a
// per-login override. Zero (the default) means unlimited. The budget
// bounds a login's total registered footprint — real files, dummy
// cover and in-flight allocations alike; overage surfaces as
// stegfs.ErrVolumeFull, which round-trips the wire. The check is a
// memory-only comparison on the allocation path, so a quota rejection
// takes the same observable time as any other full-volume rejection.
func (a *VolatileAgent) SetDefaultQuota(blocks uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.defaultQuota = blocks
}

// SetQuota sets a per-login block budget override; zero removes the
// override (the default budget applies again).
func (a *VolatileAgent) SetQuota(user string, blocks uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if blocks == 0 {
		delete(a.quota, user)
		return
	}
	a.quota[user] = blocks
}

// Quota returns the login's effective block budget (0 = unlimited).
func (a *VolatileAgent) Quota(user string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.quotaLocked(user)
}

// Usage returns how many blocks are currently registered to the login.
func (a *VolatileAgent) Usage(user string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.usage[user]
}

// checkBudget pre-checks that the login can take on need more blocks,
// so Create/CreateDummy fail before touching the device (the header
// hunt acquires candidates directly, bypassing AcquireRandom's gate).
func (a *VolatileAgent) checkBudget(user string, need uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.overBudgetLocked(user, need) {
		return fmt.Errorf("steghide: login block budget exhausted: %w", stegfs.ErrVolumeFull)
	}
	return nil
}

// registerFile (re)classifies every block of a disclosed file. A
// dummy file's blocks pass the quarantine gate first: its on-disk map
// may be stale after a crash, claiming blocks that now hold (or may
// hold) another file's live data.
func (a *VolatileAgent) registerFile(user string, f *stegfs.File) {
	hseal := f.HeaderSealer()
	cseal := f.ContentSealer()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.register(f.HeaderLoc(), ownerInfo{file: f, user: user, seal: hseal})
	for _, loc := range f.BlockLocs() {
		if f.IsDummy() {
			if a.quarantineDummyLocked(f, user, loc) {
				continue
			}
			a.register(loc, ownerInfo{file: f, user: user, dummy: true})
		} else {
			a.register(loc, ownerInfo{file: f, user: user, seal: cseal})
		}
	}
	for _, loc := range f.IndirectLocs() {
		a.register(loc, ownerInfo{file: f, user: user, seal: hseal})
	}
}

// forgetFile removes every registration pointing at f.
func (a *VolatileAgent) forgetFile(f *stegfs.File) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var gone []uint64
	for loc, info := range a.known {
		if info.file == f {
			gone = append(gone, loc)
		}
	}
	for _, loc := range gone {
		a.unregister(loc)
	}
}

// --- BlockSource for disclosed space ---------------------------------

// volatileSource adapts the agent's disclosed-block registry to
// stegfs.BlockSource. Allocation draws from disclosed dummy blocks
// (withdrawing them from their dummy file); release donates blocks to
// a disclosed dummy file of the same user when one exists. Methods
// serialize on the agent's registry mutex internally.
type volatileSource struct {
	a    *VolatileAgent
	user string
	// allowUnknown lets AcquireRandom claim abandoned (undisclosed)
	// blocks; set only on the source used to materialize dummy files.
	allowUnknown bool
}

// SpaceBounds implements stegfs.BlockSource: header candidates range
// over the whole steg space regardless of disclosure.
func (s *volatileSource) SpaceBounds() (uint64, uint64) {
	return s.a.vol.FirstDataBlock(), s.a.vol.NumBlocks()
}

// FreeCount implements stegfs.BlockSource.
func (s *volatileSource) FreeCount() uint64 { return s.a.DummyBlocks() }

// IsFree implements stegfs.BlockSource.
func (s *volatileSource) IsFree(loc uint64) bool {
	a := s.a
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.known[loc]
	return ok && info.dummy
}

// Acquire implements stegfs.BlockSource. Dummy blocks are withdrawn
// from their dummy file; unknown blocks are claimed optimistically —
// the residual stomping risk for undisclosed files is inherent to
// StegFS creation (the 2003 paper mitigates it with replication) and
// documented in DESIGN.md.
func (s *volatileSource) Acquire(loc uint64) bool {
	a := s.a
	if loc < a.vol.FirstDataBlock() || loc >= a.vol.NumBlocks() {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.known[loc]
	if !ok {
		a.register(loc, ownerInfo{user: s.user, pending: true})
		return true
	}
	if !info.dummy {
		return false
	}
	if err := info.file.RemoveBlockLoc(loc); err != nil {
		return false
	}
	a.register(loc, ownerInfo{user: s.user, pending: true})
	return true
}

// AcquireRandom implements stegfs.BlockSource: a uniformly random
// disclosed dummy block. Sources created with allowUnknown (used only
// while materializing new dummy files) claim unknown — abandoned —
// blocks instead, so new cover extends the disclosed space rather
// than cannibalizing other dummy files; ordinary file growth never
// touches unknown blocks, keeping data within disclosed space
// (§4.2.2).
func (s *volatileSource) AcquireRandom() (uint64, error) {
	a := s.a
	a.mu.Lock()
	defer a.mu.Unlock()
	// The quota gate lives here — the only path that grows a login's
	// footprint. Acquire (above) stays ungated because opening or
	// disclosing an existing file re-claims blocks the login already
	// owns through it.
	if a.overBudgetLocked(s.user, 1) {
		return 0, fmt.Errorf("steghide: login block budget exhausted: %w", stegfs.ErrVolumeFull)
	}
	if s.allowUnknown {
		first, n := a.vol.FirstDataBlock(), a.vol.NumBlocks()
		for try := 0; try < 4096; try++ {
			loc := first + a.rng.Uint64n(n-first)
			if _, ok := a.known[loc]; ok {
				continue
			}
			// After a crash the ring may prove (or leave open) that an
			// abandoned-looking block holds live data: never claim it.
			if a.recov.protects(loc) {
				continue
			}
			a.register(loc, ownerInfo{user: s.user, pending: true})
			return loc, nil
		}
		// The volume is almost fully disclosed; fall through to the
		// dummy pool.
	}
	if a.dummyData == 0 {
		return 0, fmt.Errorf("%w: disclose a dummy file first", ErrNoDummySpace)
	}
	for {
		loc := a.list[a.rng.Intn(len(a.list))]
		info := a.known[loc]
		if !info.dummy {
			continue
		}
		if err := info.file.RemoveBlockLoc(loc); err != nil {
			return 0, err
		}
		a.register(loc, ownerInfo{user: s.user, pending: true})
		return loc, nil
	}
}

// Release implements stegfs.BlockSource: the block joins one of the
// user's disclosed dummy files; with none disclosed it becomes
// unknown again (forgotten, unreachable until redisclosed).
func (s *volatileSource) Release(loc uint64) {
	a := s.a
	a.mu.Lock()
	defer a.mu.Unlock()
	sess := a.sessions[s.user]
	if sess != nil {
		for _, df := range sess.dummyFiles {
			if err := df.AppendBlockLoc(loc); err == nil {
				a.register(loc, ownerInfo{file: df, user: s.user, dummy: true})
				return
			}
		}
	}
	a.unregister(loc)
}

// --- sessions ---------------------------------------------------------

// Session is one user's login: the set of FAKs they disclosed and the
// open file handles. Structural operations (Create, CreateDummy, a
// first Disclose, Delete) take the agent's control-plane lock; Write,
// Read and Save run on the shared data plane, serialized per session
// only, so many sessions update concurrently through the scheduler.
type Session struct {
	agent  *VolatileAgent
	user   string
	master sealer.Key
	source *volatileSource

	mu         sync.Mutex // serializes this session's file operations
	files      map[string]*stegfs.File
	dummyFiles map[string]*stegfs.File
	// ended is set at logout (under the agent's structMu): the master
	// key is gone, so nothing may derive a FAK from it any more.
	ended bool
}

// Login opens a session for user; master is the stretched passphrase
// key from which the user's per-file FAKs derive.
func (a *VolatileAgent) Login(user string, master sealer.Key) (*Session, error) {
	a.structMu.Lock()
	defer a.structMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.sessions[user]; dup {
		return nil, fmt.Errorf("%w: %q", ErrUserBusy, user)
	}
	s := &Session{
		agent:      a,
		user:       user,
		master:     master,
		source:     &volatileSource{a: a, user: user},
		files:      map[string]*stegfs.File{},
		dummyFiles: map[string]*stegfs.File{},
	}
	a.sessions[user] = s
	return s, nil
}

// LoginWithPassphrase stretches the passphrase against the volume salt
// and logs in.
func (a *VolatileAgent) LoginWithPassphrase(user, passphrase string) (*Session, error) {
	master := sealer.KeyFromPassphrase(passphrase, a.vol.Salt(), a.vol.KDFIterations())
	return a.Login(user, master)
}

// Logout flushes all of the user's files and erases the agent's
// knowledge of them — the volatility that protects the administrator
// from coercion. It waits for the user's in-flight updates to drain.
func (a *VolatileAgent) Logout(user string) error {
	return a.LogoutCtx(context.Background(), user)
}

// LogoutCtx is Logout issuing the files' open runs under ctx. A run
// that cannot be issued is lost with the session — like every write
// since the file's last save would be after a crash — and reported.
func (a *VolatileAgent) LogoutCtx(ctx context.Context, user string) error {
	a.structMu.Lock()
	defer a.structMu.Unlock()
	a.mu.Lock()
	s, ok := a.sessions[user]
	a.mu.Unlock()
	if !ok {
		return ErrUnknownUser
	}
	var firstErr error
	closeAll := func(m map[string]*stegfs.File) {
		for _, f := range m {
			err := f.Flush(a.policy(ctx))
			if serr := f.Save(); err == nil {
				err = serr
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			// Save may have allocated pointer blocks (registered as
			// pending); classify them before forgetting the file so
			// nothing leaks in the registry.
			a.registerFile(s.user, f)
			a.forgetFile(f)
		}
	}
	closeAll(s.files)
	closeAll(s.dummyFiles)
	a.mu.Lock()
	delete(a.sessions, user)
	a.mu.Unlock()
	// A retained *Session must not outlive the logout: it reads nothing
	// and derives no key.
	s.mu.Lock()
	clear(s.files)
	clear(s.dummyFiles)
	s.master = sealer.Key{} // best-effort erasure
	s.ended = true
	s.mu.Unlock()
	return firstErr
}

// Users lists the users with active sessions, sorted.
func (a *VolatileAgent) Users() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.sessions))
	for u := range a.sessions {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// LogoutAll logs every active session out (flushing its files),
// returning the first failure. Mount-built stacks call it on Close so
// no session outlives the stack.
func (a *VolatileAgent) LogoutAll() error {
	var firstErr error
	for _, u := range a.Users() {
		if err := a.Logout(u); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fak derives the FAK for one of the session user's paths.
func (s *Session) fak(path string) stegfs.FAK {
	return stegfs.DeriveFAKFromMaster(s.master, path)
}

// Create creates and disclosed-registers a hidden file.
func (s *Session) Create(path string) (*stegfs.File, error) {
	a := s.agent
	a.structMu.Lock()
	defer a.structMu.Unlock()
	if s.ended {
		return nil, ErrUnknownUser
	}
	if _, dup := s.files[path]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, path)
	}
	if err := a.checkBudget(s.user, 1); err != nil {
		return nil, err
	}
	f, err := stegfs.CreateFile(a.vol, s.fak(path), path, s.source)
	if err != nil {
		return nil, err
	}
	s.files[path] = f
	a.registerFile(s.user, f)
	a.applyRecovery(f)
	return f, nil
}

// CreateDummy creates a dummy file of nBlocks blocks and discloses it.
// Its blocks immediately become relocation targets and camouflage
// material for the whole agent. New dummy files may claim abandoned
// (undisclosed) blocks — that is how cover is bootstrapped.
func (s *Session) CreateDummy(path string, nBlocks uint64) (*stegfs.File, error) {
	a := s.agent
	a.structMu.Lock()
	defer a.structMu.Unlock()
	if s.ended {
		return nil, ErrUnknownUser
	}
	if _, dup := s.dummyFiles[path]; dup {
		return nil, fmt.Errorf("%w: dummy %q", ErrExists, path)
	}
	if err := a.checkBudget(s.user, nBlocks+1); err != nil {
		return nil, err
	}
	boot := &volatileSource{a: a, user: s.user, allowUnknown: true}
	f, err := stegfs.CreateDummyFile(a.vol, s.fak(path), path, boot, nBlocks)
	if err != nil {
		return nil, err
	}
	s.dummyFiles[path] = f
	a.registerFile(s.user, f)
	a.applyRecovery(f)
	return f, nil
}

// Disclose opens an existing file (real or dummy — the header says
// which) and registers its blocks with the agent. A path the session
// already holds is answered on the data plane: every open of a file
// goes through here, and only the first changes what is disclosed.
func (s *Session) Disclose(path string) (*stegfs.File, error) {
	if f, ok := s.Open(path); ok {
		return f, nil
	}
	a := s.agent
	a.structMu.Lock()
	defer a.structMu.Unlock()
	if s.ended {
		return nil, ErrUnknownUser
	}
	if f, dup := s.files[path]; dup {
		return f, nil
	}
	if f, dup := s.dummyFiles[path]; dup {
		return f, nil
	}
	f, err := stegfs.OpenFile(a.vol, s.fak(path), path, s.source)
	if err != nil {
		return nil, err
	}
	if f.IsDummy() {
		s.dummyFiles[path] = f
	} else {
		s.files[path] = f
	}
	a.registerFile(s.user, f)
	// The freshly loaded map is the disk truth for this file: decide
	// any crash-time intents that were waiting for it.
	a.applyRecovery(f)
	return f, nil
}

// Write writes data at offset off of a disclosed file via Figure 6,
// then re-registers any blocks whose roles changed (growth). The
// block map stays cached; per §4.1.5 the header is flushed only when
// the file is saved (Save, or implicitly at Logout). Writes of
// different sessions proceed concurrently; the scheduler merges their
// update intents into one uniformly random stream.
func (s *Session) Write(path string, data []byte, off uint64) error {
	return s.WriteCtx(context.Background(), path, data, off)
}

// WriteCtx is Write with cooperative cancellation: the context is
// honored at the scheduler's wait point, before every draw of the
// Figure-6 loop, so a caller's deadline can abort an update that is
// still hunting for a relocation target. Blocks already updated when
// the context fires keep their new content (partial-write semantics,
// like an interrupted POSIX write); the file's map stays consistent.
func (s *Session) WriteCtx(ctx context.Context, path string, data []byte, off uint64) error {
	return s.write(ctx, path, data, off, (*stegfs.File).WriteAt)
}

// StageCtx is the write of an FS handle: data joins the file's open run
// (stegfs.File.Stage) and reaches the update stream when the run is
// full, at SaveCtx, or at logout — under that call's context, not this
// one's. Every read of the session sees it at once.
func (s *Session) StageCtx(ctx context.Context, path string, data []byte, off uint64) error {
	return s.write(ctx, path, data, off, (*stegfs.File).Stage)
}

func (s *Session) write(ctx context.Context, path string, data []byte, off uint64,
	put func(*stegfs.File, []byte, uint64, stegfs.UpdatePolicy) (int, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotDisclosed, path)
	}
	before := f.NumBlocks()
	if _, err := put(f, data, off, a.policy(ctx)); err != nil {
		return err
	}
	s.registerResized(f, before)
	return nil
}

// policy is the Figure-6 update policy bound to one call's context.
func (a *VolatileAgent) policy(ctx context.Context) stegfs.UpdatePolicy {
	return runPolicy{ctx: ctx, sched: a.sched}
}

// registerResized re-registers f after an operation that may have
// changed its block set, and only then: blocks that merely relocated
// were registered by the scheduler's commit, so a write that neither
// grew nor shrank the file leaves the registry as it is. The caller
// holds s.mu.
func (s *Session) registerResized(f *stegfs.File, before uint64) {
	if f.NumBlocks() != before {
		s.agent.registerFile(s.user, f)
	}
}

// Truncate resizes a disclosed real file to size bytes: growth draws
// fresh blocks from the disclosed dummy space, shrinkage donates
// blocks back to the user's dummy files.
func (s *Session) Truncate(path string, size uint64) error {
	return s.TruncateCtx(context.Background(), path, size)
}

// TruncateCtx is Truncate honoring the context at the scheduler's
// wait point. Like Write (whose growth path runs the same Resize), it
// holds the data-plane lock only: the registry and source serialize
// internally, so other sessions keep flowing during a large resize.
func (s *Session) TruncateCtx(ctx context.Context, path string, size uint64) error {
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotDisclosed, path)
	}
	before := f.NumBlocks()
	if err := f.Resize(size, a.policy(ctx)); err != nil {
		return err
	}
	s.registerResized(f, before)
	return nil
}

// Save flushes a disclosed file's cached block map (header and
// pointer blocks) to the volume and re-registers freshly allocated
// pointer blocks. A real file saves on the data plane, like the writes
// it makes durable: its map is the session's own (s.mu), and the
// allocation, the block I/O and the journal hooks serialize internally.
// A dummy file's map is edited by every session's relocations under the
// registry lock, so reading it out takes the control plane.
func (s *Session) Save(path string) error {
	return s.SaveCtx(context.Background(), path)
}

// SaveCtx is Save issuing a real file's open run first, under ctx. A
// run the scheduler refuses stays staged and nothing is saved, so the
// call can simply be repeated.
func (s *Session) SaveCtx(ctx context.Context, path string) error {
	a := s.agent
	if saved, err := s.saveReal(ctx, path); saved {
		return err
	}
	a.structMu.Lock()
	defer a.structMu.Unlock()
	df, ok := s.dummyFiles[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotDisclosed, path)
	}
	if err := df.Save(); err != nil {
		return err
	}
	a.registerFile(s.user, df)
	return nil
}

// saveReal saves path if it names one of the session's real files, and
// reports whether it does.
func (s *Session) saveReal(ctx context.Context, path string) (bool, error) {
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return false, nil
	}
	if err := f.Sync(a.policy(ctx)); err != nil {
		return true, err
	}
	a.registerFile(s.user, f)
	return true, nil
}

// Read reads len(p) bytes at offset off of a disclosed file.
func (s *Session) Read(path string, p []byte, off uint64) (int, error) {
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotDisclosed, path)
	}
	return f.ReadAt(p, off)
}

// Delete removes a disclosed file, donating its blocks to the user's
// dummy files.
func (s *Session) Delete(path string) error {
	a := s.agent
	a.structMu.Lock()
	defer a.structMu.Unlock()
	f, ok := s.files[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotDisclosed, path)
	}
	a.forgetFile(f)
	if err := f.Delete(); err != nil {
		return err
	}
	delete(s.files, path)
	return nil
}

// Files lists the session's disclosed real-file paths in sorted
// order, so listings are stable across runs (map iteration order must
// not leak into user-visible output or golden tests).
func (s *Session) Files() []string {
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// User returns the name this session was logged in as.
func (s *Session) User() string { return s.user }

// Stat reports the size and kind of a disclosed file, serialized with
// the session's own operations.
func (s *Session) Stat(path string) (size uint64, dummy bool, err error) {
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[path]; ok {
		return f.Size(), false, nil
	}
	if f, ok := s.dummyFiles[path]; ok {
		return f.Size(), true, nil
	}
	return 0, false, fmt.Errorf("%w: %q", ErrNotDisclosed, path)
}

// Open returns the session's open handle for path — real or dummy —
// without touching the device, and reports whether one exists. Like
// every session operation it serializes with the agent's control
// plane (Create/Disclose/Delete mutate the maps under structMu).
func (s *Session) Open(path string) (*stegfs.File, bool) {
	a := s.agent
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[path]; ok {
		return f, true
	}
	if f, ok := s.dummyFiles[path]; ok {
		return f, true
	}
	return nil, false
}

// --- Figure 6 over disclosed blocks -----------------------------------

// DummyUpdate issues one idle-time dummy update on a uniformly random
// disclosed block.
func (a *VolatileAgent) DummyUpdate() error {
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	err := a.sched.DummyUpdate()
	if errors.Is(err, sched.ErrNoTarget) {
		return fmt.Errorf("%w: only pending blocks visible", ErrNoDummySpace)
	}
	return err
}

// DummyUpdateBurst issues up to n idle-time dummy updates over the
// disclosed blocks in one batched read-modify-write cycle (two
// scattered device batches instead of 2n single-block calls). Each
// target is drawn exactly as DummyUpdate draws it, so the observable
// stream keeps the same uniform-over-disclosed distribution. It
// returns how many updates were issued — fewer than n when few
// non-pending targets are visible.
func (a *VolatileAgent) DummyUpdateBurst(n int) (int, error) {
	a.structMu.RLock()
	defer a.structMu.RUnlock()
	issued, err := a.sched.DummyUpdateBurst(n)
	if errors.Is(err, sched.ErrNoTarget) {
		return issued, fmt.Errorf("%w: only pending blocks visible", ErrNoDummySpace)
	}
	return issued, err
}

// --- scheduler space over the disclosed registry ----------------------

// volatileSpace adapts the disclosed-block registry to sched.Space.
// All methods serialize on the agent's registry mutex; none perform
// I/O.
type volatileSpace struct {
	a *VolatileAgent
}

// DrawUpdate implements sched.Space: one uniform draw over the
// disclosed blocks. A draw that lands on a relocatable dummy block
// atomically withdraws it from its dummy file (first phase of the
// swap) so no concurrent draw — relocation or allocation — can claim
// it twice.
func (sp *volatileSpace) DrawUpdate(loc uint64) (sched.Target, error) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dummyData == 0 {
		return sched.Target{}, fmt.Errorf("%w: disclose a dummy file first", ErrNoDummySpace)
	}
	b2 := a.list[a.rng.Intn(len(a.list))]
	info := a.known[b2]
	switch {
	case b2 == loc:
		return sched.Target{Loc: loc, Kind: sched.Self}, nil
	case info.dummy:
		if err := info.file.RemoveBlockLoc(b2); err != nil {
			return sched.Target{}, err
		}
		a.register(b2, ownerInfo{user: info.user, pending: true, reloc: info.file})
		return sched.Target{Loc: b2, Kind: sched.Relocate}, nil
	case info.pending:
		// Mid-operation block with an unclassified role: not a safe
		// camouflage target; redraw.
		return sched.Target{Kind: sched.Redraw}, nil
	default:
		return sched.Target{Loc: b2, Kind: sched.Camouflage}, nil
	}
}

// CommitRelocate implements sched.Space: the payload landed on newLoc,
// so it takes over oldLoc's ownership, and oldLoc joins the dummy
// file that donated newLoc.
func (sp *volatileSpace) CommitRelocate(oldLoc, newLoc uint64, seal *sealer.Sealer) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	// Copies: register overwrites the entries in place.
	var pend, old ownerInfo
	if p := a.known[newLoc]; p != nil {
		pend = *p
	}
	if o := a.known[oldLoc]; o != nil {
		old = *o
	}
	a.register(newLoc, ownerInfo{file: old.file, user: old.user, seal: seal})
	if a.jc2 != nil {
		// Journaled: the vacated block stays in limbo — pending, owed
		// to the donor — until the owning file's header save makes the
		// move durable; until then the on-disk header still references
		// oldLoc, so no refill or reallocation may touch it.
		user := old.user
		if pend.reloc != nil {
			user = pend.user
		}
		a.jc2.vacatedLocked(oldLoc, newLoc, pend.reloc, user)
		a.register(oldLoc, ownerInfo{user: user, pending: true})
		return
	}
	if pend.reloc != nil {
		if err := pend.reloc.AppendBlockLoc(oldLoc); err == nil {
			a.register(oldLoc, ownerInfo{file: pend.reloc, user: pend.user, dummy: true})
			return
		}
	}
	// No donor to give the vacated block to (should not happen for a
	// committed relocation): forget it rather than corrupt a map.
	a.unregister(oldLoc)
}

// AbortRelocate implements sched.Space: the payload write failed, so
// the withdrawn target returns to its dummy file and the data stays
// where it was.
func (sp *volatileSpace) AbortRelocate(_, newLoc uint64) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	pend := a.known[newLoc]
	if pend == nil {
		return
	}
	if pend.reloc != nil {
		if err := pend.reloc.AppendBlockLoc(newLoc); err == nil {
			a.register(newLoc, ownerInfo{file: pend.reloc, user: pend.user, dummy: true})
			return
		}
	}
	a.unregister(newLoc)
}

// DrawDummyBatch implements sched.Space: uniform draws over the
// disclosed blocks, pre-filtering mid-operation ones; eligibility is
// decided at execution time by Classify.
func (sp *volatileSpace) DrawDummyBatch(locs []uint64) (int, error) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.list) == 0 {
		return 0, fmt.Errorf("%w: nothing disclosed", ErrNoDummySpace)
	}
	n := 0
	for try := 0; try < 64*len(locs) && n < len(locs); try++ {
		b3 := a.list[a.rng.Intn(len(a.list))]
		if a.known[b3].pending {
			continue
		}
		locs[n] = b3
		n++
	}
	return n, nil
}

// Classify implements sched.Space: decided under the block's I/O lock,
// so a role change between draw and execution reseals under the
// current key — or skips a mid-operation block — never acts on stale
// state.
func (sp *volatileSpace) Classify(loc uint64) (sched.Action, *sealer.Sealer) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	info, ok := a.known[loc]
	switch {
	case !ok || info.pending:
		return sched.ActSkip, nil
	case info.dummy:
		// Meaningless content: fresh random bytes are its reseal.
		return sched.ActRefill, nil
	default:
		return sched.ActReseal, info.seal
	}
}
