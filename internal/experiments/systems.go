package experiments

import (
	"context"
	"fmt"

	"steghide/internal/baseline"
	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
	"steghide/internal/steghide"
	"steghide/internal/workload"
)

// System is the uniform surface the figure runners drive. The five
// implementations are the five rows of Table 3.
type System interface {
	// CreateFile materializes a file of the given block count for the
	// named user.
	CreateFile(user, name string, blocks uint64) error
	// ScanStream returns the physical block sequence a whole-file read
	// issues, including open overhead (header probes, pointer blocks).
	ScanStream(user, name string) ([]uint64, error)
	// Update rewrites `blocks` consecutive logical blocks at block
	// offset off. The I/O lands on the system's device.
	Update(user, name string, off uint64, blocks int) error
}

const (
	nameStegHide     = "StegHide"  // Construction 2: volatile agent
	nameStegHideStar = "StegHide*" // Construction 1: non-volatile agent
	nameStegFS       = "StegFS"    // the 2003 system: in-place updates
	nameFragDisk     = "FragDisk"  // fragmented conventional FS
	nameCleanDisk    = "CleanDisk" // fresh conventional FS
)

// SystemNames lists all five systems in the paper's legend order.
func SystemNames() []string {
	return []string{nameStegHide, nameStegHideStar, nameStegFS, nameFragDisk, nameCleanDisk}
}

// NewSystem builds the named system on a fresh in-memory device of
// the scale's layout geometry. All of the system's I/O flows through
// the returned collector, which the concurrency runners use to build
// replayable per-user traces.
func NewSystem(name string, s Scale, seed uint64) (System, *blockdev.Collector, error) {
	col := &blockdev.Collector{}
	dev := blockdev.NewTraced(blockdev.NewMem(s.LayoutBlockSize, s.VolumeBlocks), col)
	rng := prng.NewFromUint64(seed)
	switch name {
	case nameCleanDisk:
		return &cleanSys{store: baseline.NewCleanDisk(dev)}, col, nil
	case nameFragDisk:
		return &fragSys{store: baseline.NewFragDisk(dev, rng.Child("frag"))}, col, nil
	case nameStegFS, nameStegHideStar:
		vol, err := stegfs.Format(dev, stegfs.FormatOptions{
			KDFIterations: 4, FillSeed: rng.Bytes(16), JournalBlocks: s.journalRing()})
		if err != nil {
			return nil, nil, err
		}
		if name == nameStegFS {
			return &stegfsSys{
				vol:   vol,
				src:   stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), rng.Child("alloc")),
				files: map[string]*stegfs.File{},
			}, col, nil
		}
		agent, err := steghide.NewNonVolatile(vol, rng.Bytes(32), rng.Child("agent"))
		if err != nil {
			return nil, nil, err
		}
		if s.Journal {
			if err := agent.EnableJournal(); err != nil {
				return nil, nil, err
			}
		}
		return &c1Sys{agent: agent, files: map[string]*stegfs.File{}}, col, nil
	case nameStegHide:
		vol, err := stegfs.Format(dev, stegfs.FormatOptions{
			KDFIterations: 4, FillSeed: rng.Bytes(16), JournalBlocks: s.journalRing()})
		if err != nil {
			return nil, nil, err
		}
		agent := steghide.NewVolatile(vol, rng.Child("agent"))
		if s.Journal {
			if err := agent.EnableJournal(steghide.JournalKey(vol, "benchrunner-admin")); err != nil {
				return nil, nil, err
			}
		}
		return &c2Sys{
			agent:    agent,
			sessions: map[string]*steghide.Session{},
		}, col, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown system %q", name)
	}
}

// payloadFor builds deterministic content for a file of n blocks.
func payloadFor(name string, blocks uint64, payload int) []byte {
	return workload.Content(name, int(blocks)*payload)
}

// --- CleanDisk --------------------------------------------------------

type cleanSys struct {
	store *baseline.CleanDisk
}

func (c *cleanSys) CreateFile(user, name string, blocks uint64) error {
	return c.store.Write(user+name, payloadFor(name, blocks, c.store.BlockPayload()))
}

func (c *cleanSys) ScanStream(user, name string) ([]uint64, error) {
	return c.store.FileBlocks(user + name)
}

func (c *cleanSys) Update(user, name string, off uint64, blocks int) error {
	return c.store.UpdateBlocks(user+name, off, make([]byte, blocks*c.store.BlockPayload()))
}

// --- FragDisk ---------------------------------------------------------

type fragSys struct {
	store *baseline.FragDisk
}

func (f *fragSys) CreateFile(user, name string, blocks uint64) error {
	return f.store.Write(user+name, payloadFor(name, blocks, f.store.BlockPayload()))
}

func (f *fragSys) ScanStream(user, name string) ([]uint64, error) {
	return f.store.FileBlocks(user + name)
}

func (f *fragSys) Update(user, name string, off uint64, blocks int) error {
	return f.store.UpdateBlocks(user+name, off, make([]byte, blocks*f.store.BlockPayload()))
}

// --- StegFS (2003 baseline: hidden, but in-place updates) -------------

type stegfsSys struct {
	vol   *stegfs.Volume
	src   *stegfs.BitmapSource
	files map[string]*stegfs.File
}

func (s *stegfsSys) CreateFile(user, name string, blocks uint64) error {
	fak := stegfs.DeriveFAK(user, name, s.vol)
	f, err := stegfs.CreateFile(s.vol, fak, name, s.src)
	if err != nil {
		return err
	}
	data := payloadFor(name, blocks, s.vol.PayloadSize())
	if _, err := f.WriteAt(data, 0, stegfs.InPlacePolicy{Vol: s.vol}); err != nil {
		return err
	}
	if err := f.Save(); err != nil {
		return err
	}
	s.files[user+name] = f
	return nil
}

func stegScan(f *stegfs.File) []uint64 {
	stream := []uint64{f.HeaderLoc()}
	stream = append(stream, f.IndirectLocs()...)
	return append(stream, f.BlockLocs()...)
}

func (s *stegfsSys) ScanStream(user, name string) ([]uint64, error) {
	f, ok := s.files[user+name]
	if !ok {
		return nil, fmt.Errorf("experiments: %s%s not created", user, name)
	}
	return stegScan(f), nil
}

func (s *stegfsSys) Update(user, name string, off uint64, blocks int) error {
	f, ok := s.files[user+name]
	if !ok {
		return fmt.Errorf("experiments: %s%s not created", user, name)
	}
	data := make([]byte, blocks*s.vol.PayloadSize())
	_, err := f.WriteAt(data, off*uint64(s.vol.PayloadSize()), stegfs.InPlacePolicy{Vol: s.vol})
	return err
}

// Source exposes the allocator, so runners can sweep utilization the
// way the paper's simulation does (random bitmap fill).
func (s *stegfsSys) Source() *stegfs.BitmapSource { return s.src }

// --- StegHide* (Construction 1) ----------------------------------------

type c1Sys struct {
	agent *steghide.NonVolatileAgent
	files map[string]*stegfs.File // the handles Create returned, by path
}

// Agent exposes the agent for utilization sweeps and dummy updates.
func (c *c1Sys) Agent() *steghide.NonVolatileAgent { return c.agent }

func (c *c1Sys) CreateFile(user, name string, blocks uint64) error {
	path := user + name // the agent's namespace is volume-wide
	f, err := c.agent.Create(user, path)
	if err != nil {
		return err
	}
	c.files[path] = f
	ctx := context.Background()
	data := payloadFor(name, blocks, c.agent.Vol().PayloadSize())
	if err := c.agent.Write(ctx, path, f, data, 0); err != nil {
		return err
	}
	return c.agent.Sync(ctx, path, f)
}

func (c *c1Sys) ScanStream(user, name string) ([]uint64, error) {
	f, err := c.agent.Open(user, user+name)
	if err != nil {
		return nil, err
	}
	return stegScan(f), nil
}

func (c *c1Sys) Update(user, name string, off uint64, blocks int) error {
	path := user + name
	ps := c.agent.Vol().PayloadSize()
	return c.agent.Write(context.Background(), path, c.files[path], make([]byte, blocks*ps), off*uint64(ps))
}

// --- StegHide (Construction 2) ------------------------------------------

type c2Sys struct {
	agent    *steghide.VolatileAgent
	sessions map[string]*steghide.Session
	dummies  uint64 // dummy blocks created per user at first login
}

// Agent exposes the agent for dummy-update traffic.
func (c *c2Sys) Agent() *steghide.VolatileAgent { return c.agent }

func (c *c2Sys) session(user string) (*steghide.Session, error) {
	if s, ok := c.sessions[user]; ok {
		return s, nil
	}
	s, err := c.agent.Login(user, "pw-"+user)
	if err != nil {
		return nil, err
	}
	c.sessions[user] = s
	return s, nil
}

// SetDummyBlocks fixes the dummy cover materialized per created file
// — the knob behind the utilization sweep of Fig. 11a. Zero selects
// automatic sizing: twice the file plus slack, since growing the file
// consumes dummy blocks one for one.
func (c *c2Sys) SetDummyBlocks(n uint64) { c.dummies = n }

func (c *c2Sys) CreateFile(user, name string, blocks uint64) error {
	ctx := context.Background()
	s, err := c.session(user)
	if err != nil {
		return err
	}
	cover := c.dummies
	if cover == 0 {
		cover = blocks*2 + 32
	}
	// Dummy files are capped by the block map like any file; large
	// cover is split across several (the paper sizes dummy files
	// "approximately the size of data files").
	maxPer := c.agent.Vol().MaxFileBlocks() * 3 / 4
	for i := 0; cover > 0; i++ {
		n := cover
		if n > maxPer {
			n = maxPer
		}
		path := fmt.Sprintf("/dummy-%s%s-%d", user, name, i)
		if _, err := s.CreateDummy(path, n); err != nil {
			return err
		}
		cover -= n
	}
	if _, err := s.Create(name); err != nil {
		return err
	}
	data := payloadFor(name, blocks, c.agent.Vol().PayloadSize())
	if err := s.Write(ctx, name, data, 0); err != nil {
		return err
	}
	return s.Save(ctx, name)
}

func (c *c2Sys) ScanStream(user, name string) ([]uint64, error) {
	s, err := c.session(user)
	if err != nil {
		return nil, err
	}
	f, err := s.Disclose(name)
	if err != nil {
		return nil, err
	}
	return stegScan(f), nil
}

func (c *c2Sys) Update(user, name string, off uint64, blocks int) error {
	s, err := c.session(user)
	if err != nil {
		return err
	}
	ps := c.agent.Vol().PayloadSize()
	return s.Write(context.Background(), name, make([]byte, blocks*ps), off*uint64(ps))
}
