package suite

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Scenario is a registered experiment: a named runner that reproduces
// one figure or extension table.
type Scenario struct {
	// Name is the stable lookup key (e.g. "fig6v", "ext-cycle").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Tags group scenarios for selection (e.g. "paper", "ext").
	Tags []string
	// Run produces the scenario's table.
	Run func(Config) (*Table, error)
}

// HasTag reports whether the scenario carries the tag.
func (s Scenario) HasTag(tag string) bool {
	for _, t := range s.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

var registry = struct {
	mu     sync.RWMutex
	order  []string
	byName map[string]Scenario
}{byName: make(map[string]Scenario)}

// Register adds a scenario to the registry. It panics on a nil runner,
// an empty name, or a duplicate name: registration happens in init
// functions, where a bad scenario is a programming error.
func Register(s Scenario) {
	if s.Name == "" {
		panic("suite: Register with empty scenario name")
	}
	if s.Run == nil {
		panic(fmt.Sprintf("suite: scenario %q has no Run", s.Name))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		panic(fmt.Sprintf("suite: duplicate scenario %q", s.Name))
	}
	registry.byName[s.Name] = s
	registry.order = append(registry.order, s.Name)
}

// Scenarios returns every registered scenario in registration order
// (the paper's figure order, then extensions).
func Scenarios() []Scenario {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Scenario, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// Tags returns every distinct tag in use, sorted.
func Tags() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	seen := make(map[string]bool)
	for _, s := range registry.byName {
		for _, t := range s.Tags {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Select resolves selectors — scenario names or tags — into scenarios in
// registration order, deduplicated. No selectors selects everything. An
// unknown selector is an error listing what is available.
func Select(selectors ...string) ([]Scenario, error) {
	all := Scenarios()
	if len(selectors) == 0 {
		return all, nil
	}
	picked := make(map[string]bool)
	for _, sel := range selectors {
		matched := false
		for _, s := range all {
			if s.Name == sel || s.HasTag(sel) {
				picked[s.Name] = true
				matched = true
			}
		}
		if !matched {
			names := make([]string, len(all))
			for i, s := range all {
				names[i] = s.Name
			}
			return nil, fmt.Errorf("suite: unknown scenario or tag %q (scenarios: %s; tags: %s)",
				sel, strings.Join(names, ", "), strings.Join(Tags(), ", "))
		}
	}
	out := make([]Scenario, 0, len(picked))
	for _, s := range all {
		if picked[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}
