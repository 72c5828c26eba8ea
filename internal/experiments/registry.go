package experiments

import (
	"fmt"
	"io"
)

// Runner regenerates one table or figure.
type Runner func(Scale) (*Table, error)

// Experiment pairs an ID with its runner and the paper's claim.
type Experiment struct {
	ID    string
	Claim string
	Run   Runner
}

// All lists every reproduced experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig10a", "steg systems retrieve alike; CleanDisk ≪ steg; FragDisk between", Fig10a},
		{"fig10b", "baselines' sequential advantage vanishes by ~16 concurrent users", Fig10b},
		{"fig11a", "update cost of the hiding constructions grows as E=N/D; others flat", Fig11a},
		{"fig11b", "steg update cost linear in range; conventional roughly flat", Fig11b},
		{"fig11c", "concurrency erases the baselines' update advantage", Fig11c},
		{"table4", "height 7→3 and overhead 70→30 as the buffer grows 8→128 MB", Table4},
		{"fig12a", "oblivious reads cost 5–12× StegFS, improving with buffer size", Fig12a},
		{"fig12b", "sorting < 30% of access time despite its I/O count", Fig12b},
		{"eq1", "measured update overhead matches E = N/D", Eq1},
		{"security", "Definition 1: workload indistinguishable from dummy traffic", SecurityDef1},
		{"journal", "intent journal: ≤25% update overhead, stream still indistinguishable", JournalOverhead},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAndPrint executes the experiment and writes its table to w.
func (e Experiment) RunAndPrint(s Scale, w io.Writer) error {
	t, err := e.Run(s)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	e.print(t, w)
	return nil
}

// print writes t under the experiment's claim line.
func (e Experiment) print(t *Table, w io.Writer) {
	fmt.Fprintf(w, "# claim: %s\n", e.Claim)
	t.Print(w)
}
