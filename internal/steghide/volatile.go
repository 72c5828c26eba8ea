package steghide

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
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
//   - mu guards the disclosed-block registry (list/slot, dummyData),
//     the session table, and the in-memory block maps of dummy files —
//     the state every relocation and allocation touches. Critical
//     sections are memory-only and tiny, and the scheduler's batch
//     calls take mu once per batch.
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

	mu  sync.Mutex
	vol *stegfs.Volume
	rng *prng.PRNG // guarded by mu
	// The disclosed-block registry (DESIGN.md, "Disclosed-block
	// registry"). list holds one entry per disclosed block in
	// registration order, and a uniform draw is an index into it, so
	// that order is the draw stream's. slot is indexed by device
	// address: 1 + the block's list index, 0 for an unknown block.
	list      []entry
	slot      []int32
	dummyData uint64 // count of relocatable dummy-data blocks
	sessions  map[string]*Session

	// Per-login capacity quotas (guarded by mu). A login charged for a
	// block has a number n: logins maps its name to n, and usage[n−1]
	// counts every block registered to it — real, dummy and pending
	// alike, so the budget bounds a user's total disclosed footprint
	// and deleting a file (whose blocks stay as the user's cover) frees
	// nothing. An entry keeps its login's number, so a block that
	// changes hands or leaves costs no hash. A forgotten login's slot
	// is zero until the next new login takes it; lastLogin is the
	// number last looked up. defaultQuota is every login's budget;
	// zero means unlimited.
	logins       map[string]int32
	usage        []loginUsage
	lastLogin    int32
	defaultQuota uint64

	sched *sched.Scheduler

	// jc2 is the journal adapter (nil without EnableJournal); recov is
	// the armed post-crash resolution state (nil after a clean boot or
	// once fully consumed). Both guarded by mu.
	jc2   *c2Intents
	recov *c2Recovery
}

// entry is one disclosed block of the registry.
type entry struct {
	loc   uint64
	login int32 // the number of the login charged for it, 0 for none
	ownerInfo
}

// loginUsage is one charged login: its name and how many registered
// blocks it holds.
type loginUsage struct {
	name   string
	blocks uint64
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
	// at is a dummy block's index in its file's block map, so the
	// block leaves the map without a search.
	at int
}

// NewVolatile creates an empty volatile agent over a volume.
func NewVolatile(vol *stegfs.Volume, rng *prng.PRNG) *VolatileAgent {
	a := &VolatileAgent{
		vol:      vol,
		rng:      rng.Child("figure6-volatile"),
		slot:     make([]int32, vol.NumBlocks()),
		sessions: map[string]*Session{},
		logins:   map[string]int32{},
	}
	a.sched = sched.New(vol, &volatileSpace{a: a})
	return a
}

// Vol returns the underlying volume.
func (a *VolatileAgent) Vol() *stegfs.Volume { return a.vol }

// Stats returns a snapshot of the agent's counters.
func (a *VolatileAgent) Stats() UpdateStats { return a.sched.Stats() }

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
			return float64(len(a.users()))
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

// lookup returns loc's registry entry, or nil for an unknown block;
// the caller holds a.mu. The pointer is good until the registry
// next gains or loses a block.
func (a *VolatileAgent) lookup(loc uint64) *entry {
	if loc >= uint64(len(a.slot)) || a.slot[loc] == 0 {
		return nil
	}
	return &a.list[a.slot[loc]-1]
}

// register records loc's ownership; the caller holds a.mu. A block the
// registry already knows keeps its entry, and its place in the draw
// order, and has it overwritten; a new block is appended. An address
// off the device (a corrupt map or ring record) is no block to own.
func (a *VolatileAgent) register(loc uint64, info ownerInfo) {
	if e := a.lookup(loc); e != nil {
		a.set(e, info)
		return
	}
	if loc >= uint64(len(a.slot)) {
		return
	}
	a.list = append(a.list, entry{loc: loc, login: a.chargeLocked(info.user), ownerInfo: info})
	a.slot[loc] = int32(len(a.list))
	if info.dummy {
		a.dummyData++
	}
}

// set overwrites a known block's entry; the caller holds a.mu.
func (a *VolatileAgent) set(e *entry, info ownerInfo) {
	if e.dummy {
		a.dummyData--
	}
	// A block that stays with its login — every relocation, every
	// re-registration — moves no charge.
	if e.user != info.user {
		a.unchargeLocked(e.login)
		e.login = a.chargeLocked(info.user)
	}
	e.ownerInfo = info
	if info.dummy {
		a.dummyData++
	}
}

// unregister forgets loc; the caller holds a.mu. The last entry moves
// into the hole, and the vacated tail is cleared so that no file or
// sealer outlives its entry.
func (a *VolatileAgent) unregister(loc uint64) {
	e := a.lookup(loc)
	if e == nil {
		return
	}
	if e.dummy {
		a.dummyData--
	}
	a.unchargeLocked(e.login)
	i, last := a.slot[loc]-1, len(a.list)-1
	if int(i) != last {
		a.list[i] = a.list[last]
		a.slot[a.list[i].loc] = i + 1
	}
	a.list[last] = entry{}
	a.list = a.list[:last]
	a.slot[loc] = 0
}

// withdraw takes a dummy block out of its file's map, by the index its
// entry keeps, and gives the block swapped into the hole its new
// index; the caller holds a.mu and registers e's block anew.
func (a *VolatileAgent) withdraw(e *entry) error {
	moved, err := e.file.RemoveBlockAt(e.at, e.loc)
	if err != nil {
		return err
	}
	if m := a.lookup(moved); m != nil && m.dummy && m.file == e.file {
		m.at = e.at
	}
	return nil
}

// donate appends loc to dummy file df's map and registers it as df's
// dummy block; the caller holds a.mu.
func (a *VolatileAgent) donate(df *stegfs.File, loc uint64, user string) error {
	if loc >= uint64(len(a.slot)) {
		return fmt.Errorf("steghide: block %d is beyond the device", loc)
	}
	at, err := df.AppendBlockLoc(loc)
	if err != nil {
		return err
	}
	a.register(loc, ownerInfo{file: df, user: user, dummy: true, at: at})
	return nil
}

// --- per-login quotas -------------------------------------------------

// chargeLocked charges one block to a login and returns the login's
// number, for the block's entry to keep; the caller holds a.mu. A block
// with no recorded login (crash limbo) is not charged: number 0. A
// login charged for the first time takes the first free number. The
// number last looked up is tried before the map, so a run of charges to
// one login hashes its name once.
func (a *VolatileAgent) chargeLocked(user string) int32 {
	if user == "" {
		return 0
	}
	n := a.lastLogin
	if n == 0 || a.usage[n-1].name != user {
		var ok bool
		if n, ok = a.logins[user]; !ok {
			n = int32(slices.IndexFunc(a.usage, func(u loginUsage) bool { return u.name == "" })) + 1
			if n == 0 {
				a.usage = append(a.usage, loginUsage{})
				n = int32(len(a.usage))
			}
			a.usage[n-1].name = user
			a.logins[user] = n
		}
		a.lastLogin = n
	}
	a.usage[n-1].blocks++
	return n
}

// unchargeLocked takes one block off login n (0: none); the caller
// holds a.mu. A login whose count reaches zero is forgotten — its name
// leaves the map, its slot is zeroed and free slots at the end of usage
// are cut off — so the agent keeps no name it no longer serves.
func (a *VolatileAgent) unchargeLocked(n int32) {
	if n == 0 {
		return
	}
	u := &a.usage[n-1]
	if u.blocks > 1 {
		u.blocks--
		return
	}
	delete(a.logins, u.name)
	*u = loginUsage{}
	if a.lastLogin == n {
		a.lastLogin = 0
	}
	for k := len(a.usage); k > 0 && a.usage[k-1].name == ""; k-- {
		a.usage = a.usage[:k-1]
	}
}

// usedLocked returns how many blocks are registered to a login; the
// caller holds a.mu.
func (a *VolatileAgent) usedLocked(user string) uint64 {
	if n, ok := a.logins[user]; ok {
		return a.usage[n-1].blocks
	}
	return 0
}

// overBudgetLocked reports whether charging need more blocks to the
// login would exceed its budget; the caller holds a.mu.
func (a *VolatileAgent) overBudgetLocked(user string, need uint64) bool {
	if a.defaultQuota == 0 {
		return false // no budget set: nothing to look up
	}
	return a.usedLocked(user)+need > a.defaultQuota
}

// SetDefaultQuota sets the block budget applied to every login. Zero
// (the default) means unlimited. The budget bounds a login's total
// registered footprint — real files, dummy cover and in-flight
// allocations alike; overage surfaces as stegfs.ErrVolumeFull, which
// round-trips the wire. The check is a memory-only comparison on the
// allocation path, so a quota rejection takes the same observable time
// as any other full-volume rejection.
func (a *VolatileAgent) SetDefaultQuota(blocks uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.defaultQuota = blocks
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
// hold) another file's live data. A block that another disclosed dummy
// file still claims leaves that file's map, so no block is in two.
func (a *VolatileAgent) registerFile(user string, f *stegfs.File) {
	hseal := f.HeaderSealer()
	cseal := f.ContentSealer()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.register(f.HeaderLoc(), ownerInfo{file: f, user: user, seal: hseal})
	for _, loc := range f.BlockLocs() {
		if e := a.lookup(loc); e != nil && e.dummy && e.file != f {
			_ = a.withdraw(e)
		}
		if !f.IsDummy() {
			a.register(loc, ownerInfo{file: f, user: user, seal: cseal})
		} else if !a.quarantineDummyLocked(f, user, loc) {
			a.register(loc, ownerInfo{file: f, user: user, dummy: true})
		}
	}
	if f.IsDummy() {
		// Quarantine may have compacted the map: index it as it stands.
		for i, loc := range f.BlockLocs() {
			if e := a.lookup(loc); e != nil && e.dummy && e.file == f {
				e.at = i
			}
		}
	}
	for _, loc := range f.IndirectLocs() {
		a.register(loc, ownerInfo{file: f, user: user, seal: hseal})
	}
}

// forgetFile removes every registration pointing at f, in address
// order: unregister swap-removes from a.list, which every later draw
// indexes, so any other order would reorder the stream.
func (a *VolatileAgent) forgetFile(f *stegfs.File) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for loc, i := range a.slot {
		if i != 0 && a.list[i-1].file == f {
			a.unregister(uint64(loc))
		}
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
	// blocks; set only on the source a dummy file is materialized with,
	// while CreateDummy materializes it.
	allowUnknown bool
}

// SpaceBounds implements stegfs.BlockSource: header candidates range
// over the whole steg space regardless of disclosure.
func (s *volatileSource) SpaceBounds() (uint64, uint64) {
	return s.a.vol.FirstDataBlock(), s.a.vol.NumBlocks()
}

// FreeCount implements stegfs.BlockSource.
func (s *volatileSource) FreeCount() uint64 { return s.a.DummyBlocks() }

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
	e := a.lookup(loc)
	if e == nil {
		a.register(loc, ownerInfo{user: s.user, pending: true})
		return true
	}
	if !e.dummy || a.withdraw(e) != nil {
		return false
	}
	a.set(e, ownerInfo{user: s.user, pending: true})
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
	// owns through it. A login at its budget still draws from its own
	// cover, which moves no charge: a save's fresh pointer blocks
	// replace as many it releases, like a relocation.
	if a.overBudgetLocked(s.user, 1) {
		return a.drawOwnLocked(s.user)
	}
	if s.allowUnknown {
		first, n := a.vol.FirstDataBlock(), a.vol.NumBlocks()
		for try := 0; try < 4096; try++ {
			loc := first + a.rng.Uint64n(n-first)
			if a.lookup(loc) != nil {
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
		e := &a.list[a.rng.Intn(len(a.list))]
		if !e.dummy {
			continue
		}
		if err := a.withdraw(e); err != nil {
			return 0, err
		}
		a.set(e, ownerInfo{user: s.user, pending: true})
		return e.loc, nil
	}
}

// drawOwnLocked withdraws a uniformly random block of the login's own
// disclosed cover and marks it pending; the caller holds a.mu. A login
// with no cover left fails as over its budget.
func (a *VolatileAgent) drawOwnLocked(user string) (uint64, error) {
	var own []uint64
	if sess := a.sessions[user]; sess != nil {
		for _, df := range sess.dummies {
			own = append(own, df.BlockLocs()...)
		}
	}
	if len(own) > 0 {
		if e := a.lookup(own[a.rng.Intn(len(own))]); e != nil && e.dummy && a.withdraw(e) == nil {
			a.set(e, ownerInfo{user: user, pending: true})
			return e.loc, nil
		}
	}
	return 0, fmt.Errorf("steghide: login block budget exhausted: %w", stegfs.ErrVolumeFull)
}

// Release implements stegfs.BlockSource: the block joins the first of
// the user's disclosed dummy files, in path order, that takes it; with
// none disclosed it becomes unknown again (forgotten, unreachable until
// redisclosed).
func (s *volatileSource) Release(loc uint64) {
	a := s.a
	a.mu.Lock()
	defer a.mu.Unlock()
	sess := a.sessions[s.user]
	if sess != nil {
		for _, df := range sess.dummies {
			if a.donate(df, loc, s.user) == nil {
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

	mu    sync.Mutex // serializes this session's file operations
	files map[string]*stegfs.File
	// dummies holds the disclosed dummy files in path order, the order
	// Release donates in and Logout saves in.
	dummies []*stegfs.File
	// ended is set at logout (under the agent's structMu): the master
	// key is gone, so nothing may derive a FAK from it any more.
	ended bool
}

// Login opens a session for user, stretching the passphrase against
// the volume salt into the master key the user's per-file FAKs derive
// from.
func (a *VolatileAgent) Login(user, passphrase string) (*Session, error) {
	master := sealer.KeyFromPassphrase(passphrase, a.vol.Salt(), a.vol.KDFIterations())
	a.structMu.Lock()
	defer a.structMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.sessions[user]; dup {
		return nil, fmt.Errorf("%w: %q", ErrUserBusy, user)
	}
	s := &Session{
		agent:  a,
		user:   user,
		master: master,
		source: &volatileSource{a: a, user: user},
		files:  map[string]*stegfs.File{},
	}
	a.sessions[user] = s
	return s, nil
}

// Logout flushes all of the user's files and erases the agent's
// knowledge of them — the volatility that protects the administrator
// from coercion. It waits for the user's in-flight updates to drain,
// then issues the files' open runs under ctx, real files before dummy
// files and each in path order, so a seeded run replays. A run that
// cannot be issued is lost with the session — like every write since
// the file's last save would be after a crash — and reported.
func (a *VolatileAgent) Logout(ctx context.Context, user string) error {
	a.structMu.Lock()
	defer a.structMu.Unlock()
	a.mu.Lock()
	s, ok := a.sessions[user]
	a.mu.Unlock()
	if !ok {
		return ErrUnknownUser
	}
	var firstErr error
	all := make([]*stegfs.File, 0, len(s.files)+len(s.dummies))
	for _, p := range slices.Sorted(maps.Keys(s.files)) {
		all = append(all, s.files[p])
	}
	for _, f := range append(all, s.dummies...) {
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
	a.mu.Lock()
	delete(a.sessions, user)
	a.mu.Unlock()
	// A retained *Session must not outlive the logout: it reads nothing
	// and derives no key.
	s.mu.Lock()
	clear(s.files)
	s.dummies = nil
	s.master = sealer.Key{} // best-effort erasure
	s.ended = true
	s.mu.Unlock()
	return firstErr
}

// users lists the users with active sessions, sorted.
func (a *VolatileAgent) users() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Sorted(maps.Keys(a.sessions))
}

// LogoutAll logs every active session out (flushing its files),
// returning the first failure. Mount-built stacks call it on Close so
// no session outlives the stack.
func (a *VolatileAgent) LogoutAll() error {
	var firstErr error
	for _, u := range a.users() {
		if err := a.Logout(context.Background(), u); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// fak derives the FAK for one of the session user's paths.
func (s *Session) fak(path string) stegfs.FAK {
	return stegfs.DeriveFAKFromMaster(s.master, path)
}

// dummy finds a disclosed dummy file by path: its index in s.dummies,
// or where it would be inserted.
func (s *Session) dummy(path string) (int, bool) {
	return slices.BinarySearchFunc(s.dummies, path, func(f *stegfs.File, p string) int {
		return strings.Compare(f.Path(), p)
	})
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
	i, dup := s.dummy(path)
	if dup {
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
	// The file keeps its source. Its later saves draw their pointer
	// blocks from the disclosed dummy blocks, never from undisclosed
	// space, where another login's files may live.
	boot.allowUnknown = false
	s.dummies = slices.Insert(s.dummies, i, f)
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
	i, dup := s.dummy(path)
	if dup {
		return s.dummies[i], nil
	}
	f, err := stegfs.OpenFile(a.vol, s.fak(path), path, s.source)
	if err != nil {
		return nil, err
	}
	if f.IsDummy() {
		s.dummies = slices.Insert(s.dummies, i, f)
	} else {
		s.files[path] = f
	}
	a.registerFile(s.user, f)
	// The freshly loaded map is the disk truth for this file: decide
	// any crash-time intents that were waiting for it.
	a.applyRecovery(f)
	return f, nil
}

// Write writes data at offset off of a disclosed file via Figure 6 at
// once, then re-registers any blocks whose roles changed (growth). The
// block map stays cached; per §4.1.5 the header is flushed only when
// the file is saved (Save, or implicitly at Logout). Writes of
// different sessions proceed concurrently; the scheduler merges their
// update intents into one uniformly random stream. ctx is honored
// before every draw of the Figure-6 loop; blocks already updated when
// it fires keep their new content (partial-write semantics, like an
// interrupted POSIX write), and the file's map stays consistent.
func (s *Session) Write(ctx context.Context, path string, data []byte, off uint64) error {
	return s.write(ctx, path, data, off, (*stegfs.File).WriteAt)
}

// Stage is the write of an FS handle: data joins the file's open run
// (stegfs.File.Stage) and reaches the update stream when the run is
// full, at Save, or at logout — under that call's context, not this
// one's. Every read of the session sees it at once.
func (s *Session) Stage(ctx context.Context, path string, data []byte, off uint64) error {
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
// blocks back to the user's dummy files. Like Write (whose growth path
// runs the same Resize), it holds the data-plane lock only: the
// registry and source serialize internally, so other sessions keep
// flowing during a large resize.
func (s *Session) Truncate(ctx context.Context, path string, size uint64) error {
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
// Its open run is issued first, under ctx; a run the scheduler refuses
// stays staged and nothing is saved, so the call can simply be
// repeated. A dummy file's map is edited by every session's relocations
// under the registry lock, so reading it out takes the control plane.
func (s *Session) Save(ctx context.Context, path string) error {
	a := s.agent
	if saved, err := s.saveReal(ctx, path); saved {
		return err
	}
	a.structMu.Lock()
	defer a.structMu.Unlock()
	i, ok := s.dummy(path)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotDisclosed, path)
	}
	df := s.dummies[i]
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
// dummy files. The blocks its unsaved relocations vacated wait in the
// journal's limbo for a save that will not come now: once the header
// is destroyed they go to the dummy files that donated their targets,
// as the save would have sent them.
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
	a.mu.Lock()
	if a.jc2 != nil {
		a.jc2.drainLocked(f.HeaderLoc())
	}
	a.mu.Unlock()
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
	out := slices.AppendSeq(make([]string, 0, len(s.files)), maps.Keys(s.files))
	slices.Sort(out)
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
	if i, ok := s.dummy(path); ok {
		return s.dummies[i].Size(), true, nil
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
	if i, ok := s.dummy(path); ok {
		return s.dummies[i], true
	}
	return nil, false
}

// --- Figure 6 over disclosed blocks -----------------------------------

// DummyUpdateBurst issues up to n idle-time dummy updates on
// uniformly random disclosed blocks in one batched read-modify-write
// cycle (two scattered device batches instead of 2n single-block
// calls). It returns how many updates were issued — fewer than n when
// few non-pending targets are visible.
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
	e := &a.list[a.rng.Intn(len(a.list))]
	switch {
	case e.loc == loc:
		return sched.Target{Loc: loc, Kind: sched.Self}, nil
	case e.dummy:
		if err := a.withdraw(e); err != nil {
			return sched.Target{}, err
		}
		a.set(e, ownerInfo{user: e.user, pending: true, reloc: e.file})
		return sched.Target{Loc: e.loc, Kind: sched.Relocate}, nil
	case e.pending:
		// Mid-operation block with an unclassified role: not a safe
		// camouflage target; redraw.
		return sched.Target{Kind: sched.Redraw}, nil
	default:
		return sched.Target{Loc: e.loc, Kind: sched.Camouflage}, nil
	}
}

// Settle implements sched.Space under one hold of the registry lock.
func (sp *volatileSpace) Settle(oldLocs, newLocs []uint64, head uint64, seal *sealer.Sealer, committed bool) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, oldLoc := range oldLocs {
		if committed {
			a.commitRelocate(oldLoc, newLocs[i], head, seal)
		} else {
			a.abortRelocate(newLocs[i])
		}
	}
}

// commitRelocate settles one landed relocation; the caller holds a.mu.
// The payload is on newLoc, so it takes over oldLoc's ownership, and
// oldLoc joins the dummy file that donated newLoc — journaled, once
// the file whose header is at head saves.
func (a *VolatileAgent) commitRelocate(oldLoc, newLoc, head uint64, seal *sealer.Sealer) {
	// Copies: register overwrites the entries in place.
	var pend, old ownerInfo
	if p := a.lookup(newLoc); p != nil {
		pend = p.ownerInfo
	}
	if o := a.lookup(oldLoc); o != nil {
		old = o.ownerInfo
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
		a.jc2.vacatedLocked(oldLoc, head, pend.reloc, user)
		a.register(oldLoc, ownerInfo{user: user, pending: true})
		return
	}
	if pend.reloc != nil && a.donate(pend.reloc, oldLoc, pend.user) == nil {
		return
	}
	// No donor to give the vacated block to (should not happen for a
	// committed relocation): forget it rather than corrupt a map.
	a.unregister(oldLoc)
}

// abortRelocate settles one relocation whose batch failed; the caller
// holds a.mu. The withdrawn target returns to its dummy file and the
// data stays where it was.
func (a *VolatileAgent) abortRelocate(newLoc uint64) {
	pend := a.lookup(newLoc)
	if pend == nil {
		return
	}
	if pend.reloc != nil && a.donate(pend.reloc, newLoc, pend.user) == nil {
		return
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
		e := &a.list[a.rng.Intn(len(a.list))]
		if e.pending {
			continue
		}
		locs[n] = e.loc
		n++
	}
	return n, nil
}

// Classify implements sched.Space: decided under the blocks' I/O locks,
// so a role change between draw and execution reseals under the
// current key — or skips a mid-operation block — never acts on stale
// state.
func (sp *volatileSpace) Classify(locs []uint64, acts []sched.Action, seals []*sealer.Sealer) {
	a := sp.a
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, loc := range locs {
		e := a.lookup(loc)
		switch {
		case e == nil || e.pending:
			acts[i], seals[i] = sched.ActSkip, nil
		case e.dummy:
			// Meaningless content: fresh random bytes are its reseal.
			acts[i], seals[i] = sched.ActRefill, nil
		default:
			acts[i], seals[i] = sched.ActReseal, e.seal
		}
	}
}
