package steghide

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestAgentMethodSets pins the exported methods of the three agent
// types: one method per operation, a context first wherever the call
// reaches the scheduler and nowhere else in the signature. The root
// package aliases these types, so api.golden does not show their
// methods; this list does.
func TestAgentMethodSets(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeFor[*Session](): {
			"Create", "CreateDummy", "Delete", "Disclose", "Files", "Open",
			"Read", "Save", "Stage", "Stat", "Truncate", "User", "Write",
		},
		reflect.TypeFor[*VolatileAgent](): {
			"DataSeq", "DummyBlocks", "DummyUpdateBurst", "EnableJournal",
			"EnableMetrics", "KnownBlocks", "Login", "Logout", "LogoutAll",
			"Recover", "ResetStats", "SetDefaultQuota", "Stats", "Vol",
		},
		reflect.TypeFor[*NonVolatileAgent](): {
			"Close", "CloseAll", "Create", "DataSeq", "Delete",
			"DummyUpdateBurst", "EnableJournal", "EnableMetrics", "HasOpen",
			"LoadState", "Open", "Policy", "Read", "Recover", "ResetStats",
			"Source", "Stage", "Stat", "State", "Stats", "Sync", "Truncate",
			"Vol", "Write",
		},
	}
	ctxType := reflect.TypeFor[context.Context]()
	total := 0
	for typ, names := range want {
		var got []string
		for i := range typ.NumMethod() {
			m := typ.Method(i)
			got = append(got, m.Name)
			// In[0] is the receiver.
			for j := 2; j < m.Type.NumIn(); j++ {
				if m.Type.In(j) == ctxType {
					t.Errorf("%v.%s takes a context.Context as parameter %d, not first", typ, m.Name, j)
				}
			}
			if strings.HasSuffix(m.Name, "Ctx") || strings.HasSuffix(m.Name, "Handle") {
				t.Errorf("%v.%s: one method per operation, no Ctx or Handle twin", typ, m.Name)
			}
		}
		if !slices.Equal(got, names) {
			t.Errorf("%v exports %d methods\n got %v\nwant %v", typ, len(got), got, names)
		}
		total += len(got)
	}
	if total != 51 {
		t.Errorf("the agent types export %d methods, want 51", total)
	}
}
