package suite

import (
	"slices"
	"strings"
	"testing"
)

// testScenario registers a no-op scenario under the given name/tags.
func testScenario(t *testing.T, name string, tags ...string) Scenario {
	t.Helper()
	s := Scenario{
		Name:        name,
		Description: "test scenario " + name,
		Tags:        tags,
		Run: func(Config) (*Table, error) {
			return &Table{Title: name, Columns: []string{"x"}, Rows: [][]string{{name}}}, nil
		},
	}
	register(t, s)
	return s
}

// register registers s for the rest of the test only, so a test that
// registers scenarios can run repeatedly in one process (-count, -cpu).
func register(t *testing.T, s Scenario) {
	t.Helper()
	Register(s)
	t.Cleanup(func() {
		registry.mu.Lock()
		defer registry.mu.Unlock()
		delete(registry.byName, s.Name)
		registry.order = slices.DeleteFunc(registry.order, func(n string) bool { return n == s.Name })
	})
}

func TestRegisterLookup(t *testing.T) {
	testScenario(t, "reg-a", "reg-test")
	testScenario(t, "reg-b", "reg-test", "reg-extra")

	got, err := Select("reg-a")
	if err != nil || len(got) != 1 || got[0].Name != "reg-a" {
		t.Fatalf("Select(reg-a) = %+v, %v", got, err)
	}
	if _, err := Select("reg-missing"); err == nil {
		t.Error("Select(reg-missing) found a scenario")
	}
	s := got[0]
	if !s.HasTag("reg-test") || s.HasTag("reg-extra") {
		t.Errorf("HasTag wrong for %+v", s)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, s Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(s)
	}
	mustPanic("empty name", Scenario{Run: func(Config) (*Table, error) { return nil, nil }})
	mustPanic("nil run", Scenario{Name: "reg-nil-run"})
	testScenario(t, "reg-dup")
	mustPanic("duplicate", Scenario{Name: "reg-dup", Run: func(Config) (*Table, error) { return nil, nil }})
}

func TestScenariosOrder(t *testing.T) {
	testScenario(t, "reg-order-1", "reg-order")
	testScenario(t, "reg-order-2", "reg-order")
	var got []string
	for _, s := range Scenarios() {
		if s.HasTag("reg-order") {
			got = append(got, s.Name)
		}
	}
	if len(got) != 2 || got[0] != "reg-order-1" || got[1] != "reg-order-2" {
		t.Fatalf("registration order = %v", got)
	}
}

func TestSelect(t *testing.T) {
	testScenario(t, "sel-a", "sel-tag")
	testScenario(t, "sel-b", "sel-tag")
	testScenario(t, "sel-c", "sel-other")

	byTag, err := Select("sel-tag")
	if err != nil {
		t.Fatal(err)
	}
	if len(byTag) != 2 || byTag[0].Name != "sel-a" || byTag[1].Name != "sel-b" {
		t.Fatalf("Select(sel-tag) = %v", names(byTag))
	}

	// Name + overlapping tag dedupes and keeps registration order.
	mixed, err := Select("sel-b", "sel-tag", "sel-c")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 3 || mixed[0].Name != "sel-a" || mixed[2].Name != "sel-c" {
		t.Fatalf("Select(mixed) = %v", names(mixed))
	}

	if _, err := Select("sel-unknown"); err == nil {
		t.Fatal("unknown selector accepted")
	} else if !strings.Contains(err.Error(), "sel-unknown") {
		t.Errorf("error %q does not name the selector", err)
	}

	// No selectors selects everything registered so far.
	all, err := Select()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Scenarios()) {
		t.Errorf("Select() = %d scenarios, want %d", len(all), len(Scenarios()))
	}
}

func TestTags(t *testing.T) {
	testScenario(t, "tag-a", "tag-z", "tag-y")
	tags := Tags()
	for i := 1; i < len(tags); i++ {
		if tags[i-1] >= tags[i] {
			t.Fatalf("Tags() not sorted: %v", tags)
		}
	}
	found := 0
	for _, tag := range tags {
		if tag == "tag-z" || tag == "tag-y" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("Tags() = %v missing tag-y/tag-z", tags)
	}
}

func names(scns []Scenario) []string {
	out := make([]string, len(scns))
	for i, s := range scns {
		out[i] = s.Name
	}
	return out
}
