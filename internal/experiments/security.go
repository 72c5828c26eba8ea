package experiments

import (
	"fmt"

	"steghide/internal/attack"
	"steghide/internal/blockdev"
	"steghide/internal/prng"
	"steghide/internal/workload"
)

// SecurityDef1 operationalizes Definition 1 (§3.2.4): for each
// steganographic system, compare the block-address distribution of
// the update stream under a pathological workload (P_X|Y) against
// pure dummy traffic (P_X|∅). The constructions must be
// indistinguishable; plain StegFS — which has no dummy traffic and
// updates in place — is flagged immediately.
func SecurityDef1(s Scale) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "security",
		Title:   "Definition 1 — can an update-analysis attacker tell workload from idle?",
		Columns: []string{"system", "p-value", "attacker verdict", "evidence"},
	}

	for _, name := range []string{nameStegHide, nameStegHideStar, nameStegFS} {
		sys, col, err := setupForUpdates(name, s, 1, 0.25, s.Seed+6)
		if err != nil {
			return nil, err
		}

		writesOf := func(events []blockdev.Event) []uint64 {
			var out []uint64
			for _, e := range blockdev.ExpandEvents(events) {
				if e.Op == blockdev.OpWrite {
					out = append(out, e.Block)
				}
			}
			return out
		}

		// Idle period: dummy updates only. StegFS has no dummy
		// mechanism — its idle stream is empty, so the attacker
		// compares the workload against uniform noise instead.
		col.Reset()
		var idle []uint64
		switch v := sys.(type) {
		case *c1Sys:
			for i := 0; i < s.SecurityOps*2; i++ {
				if _, err := v.Agent().DummyUpdateBurst(1); err != nil {
					return nil, err
				}
			}
			idle = writesOf(col.Events())
		case *c2Sys:
			for i := 0; i < s.SecurityOps*2; i++ {
				if _, err := v.Agent().DummyUpdateBurst(1); err != nil {
					return nil, err
				}
			}
			idle = writesOf(col.Events())
		case *stegfsSys:
			// Uniform reference stream over the steg space.
			rng := prng.NewFromUint64(s.Seed + 7)
			first, n := v.Source().SpaceBounds()
			for i := 0; i < s.SecurityOps*2; i++ {
				idle = append(idle, first+rng.Uint64n(n-first))
			}
		}

		// Active period: hammer one logical block — the most regular
		// workload an application could produce.
		col.Reset()
		ops, err := workload.Updates(prng.NewFromUint64(s.Seed+8),
			[]workload.FileSpec{{Name: "/target", Blocks: s.UpdateFileBlocks}}, s.SecurityOps, 1)
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			op.Off = 0 // fixed hot block
			if err := sys.Update("u00", op.Name, op.Off, op.Blocks); err != nil {
				return nil, err
			}
		}
		active := writesOf(col.Events())

		verdict, err := attack.CompareStreams(idle, active, s.VolumeBlocks, 12)
		if err != nil {
			return nil, err
		}
		decision := "cannot distinguish"
		if verdict.Detected {
			decision = "HIDDEN ACTIVITY DETECTED"
		}
		t.AddRow(name, fmt.Sprintf("%.4f", verdict.PValue), decision, verdict.Evidence)
	}
	t.Note("workload: %d updates of one fixed logical block; idle: dummy traffic (uniform reference for StegFS)", s.SecurityOps)
	return t, nil
}

// Eq1 verifies §4.1.5's expected update overhead E = N/D across
// utilizations: the measured draws per Figure-6 update must match the
// analytic value.
func Eq1(s Scale) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "eq1",
		Title:   "Expected update overhead E = N/D vs. measured (Construction 1)",
		Columns: []string{"utilization", "analytic N/D", "measured E", "relative error"},
	}
	for _, util := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		sys, _, err := setupForUpdates(nameStegHideStar, s, 1, util, s.Seed+9)
		if err != nil {
			return nil, err
		}
		c1 := sys.(*c1Sys)
		src := c1.Agent().Source()
		first, n := src.SpaceBounds()
		span := n - first
		d := src.FreeCount()
		analytic := float64(span) / float64(d)

		c1.Agent().ResetStats()
		rng := prng.NewFromUint64(s.Seed + 10)
		for i := 0; i < s.UpdatesPerPoint; i++ {
			off := rng.Uint64n(s.UpdateFileBlocks)
			if err := sys.Update("u00", "/target", off, 1); err != nil {
				return nil, err
			}
		}
		measured := c1.Agent().Stats().ExpectedOverhead()
		relErr := 0.0
		if analytic > 0 {
			relErr = (measured - analytic) / analytic
		}
		t.AddRow(fmt.Sprintf("%.2f", util),
			fmt.Sprintf("%.3f", analytic),
			fmt.Sprintf("%.3f", measured),
			fmt.Sprintf("%+.1f%%", relErr*100))
	}
	t.Note("each Figure-6 iteration costs one read and one write; E counts iterations per update")
	return t, nil
}
