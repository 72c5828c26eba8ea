// The paper's own motivating scenario (Figure 1): a DBMS stores
// Sal_table in a hidden file on shared storage. Bob gets a raise —
// `UPDATE Sal_table SET salary += 100000 WHERE name = 'Bob'` — and an
// attacker diffs snapshots taken before and after.
//
// On the 2003 StegFS the attacker sees exactly one changed block that
// belongs to no visible file: proof that hidden data exists, and a
// handle to coerce the owner with. Under StegHide the same update is
// one indistinguishable drop in a stream of dummy updates.
//
//	go run ./examples/salary-table
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"strings"

	"steghide"
	"steghide/internal/prng"
	"steghide/internal/stegfs"
)

// salTable is a toy fixed-width table stored in a hidden file.
type salTable struct {
	write func(data []byte, off uint64) error
	read  func(p []byte, off uint64) error
	rows  []string
}

const rowSize = 64

func (t *salTable) set(name string, salary uint64) error {
	for i, n := range t.rows {
		if n != name {
			continue
		}
		var row [rowSize]byte
		copy(row[:], name)
		binary.BigEndian.PutUint64(row[48:], salary)
		return t.write(row[:], uint64(i)*rowSize)
	}
	return fmt.Errorf("no such employee %q", name)
}

func (t *salTable) get(name string) (uint64, error) {
	for i, n := range t.rows {
		if n != name {
			continue
		}
		var row [rowSize]byte
		if err := t.read(row[:], uint64(i)*rowSize); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint64(row[48:]), nil
	}
	return 0, fmt.Errorf("no such employee %q", name)
}

func main() {
	fmt.Println("Figure 1: UPDATE Sal_table SET salary += 100000 WHERE name = 'Bob'")
	fmt.Println()
	fmt.Println("--- on StegFS (2003): update in place, no dummy traffic ---")
	runStegFS()
	fmt.Println()
	fmt.Println("--- on StegHide (2004): Figure 6 relocation + dummy updates ---")
	runStegHide()
}

func runStegFS() {
	mem := steghide.NewMemDevice(512, 2048)
	vol, err := steghide.Format(mem, steghide.FormatOptions{FillSeed: []byte("db1")})
	if err != nil {
		log.Fatal(err)
	}
	src := stegfs.NewBitmapSource(vol.FirstDataBlock(), vol.NumBlocks(), prng.NewFromUint64(1))
	fak := steghide.DeriveFAK("dba", "/sal_table", vol)
	f, err := stegfs.CreateFile(vol, fak, "/sal_table", src)
	if err != nil {
		log.Fatal(err)
	}
	policy := stegfs.InPlacePolicy{Vol: vol}
	table := &salTable{
		rows: []string{"Alice", "Bob"},
		write: func(d []byte, off uint64) error {
			_, err := f.WriteAt(d, off, policy)
			return err
		},
		read: func(p []byte, off uint64) error {
			_, err := f.ReadAt(p, off)
			return err
		},
	}
	mustSet(table, "Alice", 810000)
	mustSet(table, "Bob", 200000)

	// The attacker snapshots, Bob's raise happens, snapshot again.
	analyzer := steghide.NewUpdateAnalyzer(512, 2048)
	must(analyzer.Observe(mem.Snapshot()))
	sal, _ := table.get("Bob")
	mustSet(table, "Bob", sal+100000)
	must(analyzer.Observe(mem.Snapshot()))

	changed := analyzer.ChangedBlocks()
	fmt.Printf("  attacker's diff: %d block(s) changed: %v\n", len(changed), changed)
	fmt.Println("  none belongs to a visible file → \"difference means existence of useful data\"")
	sal, _ = table.get("Bob")
	fmt.Printf("  (Bob's salary is now %d — and the attacker knows *something* is hidden)\n", sal)
}

func runStegHide() {
	ctx := context.Background()
	mem := steghide.NewMemDevice(512, 2048)
	stack, err := steghide.Mount(mem,
		steghide.WithFormat(steghide.FormatOptions{FillSeed: []byte("db2")}),
		steghide.WithSeed([]byte("dbms-agent")))
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	agent := stack.Agent2()
	fs, err := stack.Login("dba", "pw")
	if err != nil {
		log.Fatal(err)
	}
	if err := fs.CreateDummy(ctx, "/wal-archive", 150); err != nil {
		log.Fatal(err)
	}
	if err := fs.Create(ctx, "/sal_table"); err != nil {
		log.Fatal(err)
	}
	w, err := fs.OpenWrite(ctx, "/sal_table")
	if err != nil {
		log.Fatal(err)
	}
	r, err := fs.OpenRead(ctx, "/sal_table")
	if err != nil {
		log.Fatal(err)
	}
	table := &salTable{
		rows: []string{"Alice", "Bob"},
		write: func(d []byte, off uint64) error {
			_, err := w.WriteAt(d, int64(off))
			return err
		},
		read: func(p []byte, off uint64) error {
			_, err := r.ReadAt(p, int64(off))
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return err
		},
	}
	mustSet(table, "Alice", 810000)
	mustSet(table, "Bob", 200000)

	analyzer := steghide.NewUpdateAnalyzer(512, 2048)
	must(analyzer.Observe(mem.Snapshot()))
	// The raise happens amid routine dummy traffic (as Figure 2
	// prescribes: "the system has been conducting dummy updates on
	// the storage periodically").
	for i := 0; i < 10; i++ {
		_, err := agent.DummyUpdateBurst(1)
		must(err)
	}
	sal, _ := table.get("Bob")
	mustSet(table, "Bob", sal+100000)
	// COMMIT: the handle's write reaches the volume now, as one run.
	must(fs.Save(ctx, "/sal_table"))
	for i := 0; i < 10; i++ {
		_, err := agent.DummyUpdateBurst(1)
		must(err)
	}
	must(analyzer.Observe(mem.Snapshot()))

	changed := analyzer.ChangedBlocks()
	fmt.Printf("  attacker's diff: %d blocks changed (update + relocation + camouflage + dummies)\n", len(changed))
	fmt.Printf("  blocks: %s ...\n", preview(changed, 8))
	fmt.Println("  every one is deniable as a dummy update; which (if any) carried Bob's raise is undecidable")
	sal, _ = table.get("Bob")
	fmt.Printf("  (Bob's salary is now %d — and the attacker has learned nothing)\n", sal)
}

func mustSet(t *salTable, name string, v uint64) {
	if err := t.set(name, v); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func preview(xs []uint64, n int) string {
	var parts []string
	for i, x := range xs {
		if i == n {
			break
		}
		parts = append(parts, fmt.Sprint(x))
	}
	return strings.Join(parts, ", ")
}
