package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/engine"
	"github.com/smartdpss/smartdpss/internal/geo"
)

// references.json holds reference costs at seed 1, keyed
// "<workload>.<kind>.<size>.<seed>", one value per input index. Refresh
// it after an intended change of results with
//
//	go test -run TestReferences -update
//
//go:embed references.json
var refsJSON []byte

// refTable maps a key to its per-input reference costs.
type refTable map[string][]float64

func loadRefs() (refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	return t, nil
}

// at returns input k's reference under key, if there is one.
func (t refTable) at(key string, k int) (float64, bool) {
	v := t[key]
	if k >= len(v) {
		return 0, false
	}
	return v[k], true
}

// lpRefInputs is how many inputs of each kind of plan carry a reference.
const lpRefInputs = 4

// computeRefs solves the first inputs of the horizon and geo workloads
// at seed, outside any timing, and returns their costs.
func computeRefs(small bool, seed int64) (refTable, error) {
	size := sizeName(small)
	t := refTable{}
	opts := engine.DefaultOptions()
	stairKey := fmt.Sprintf("horizon.stair.%s.%d", size, seed)
	coupledKey := fmt.Sprintf("horizon.coupled.%s.%d", size, seed)
	lpSites, lpDays := geoShape(coupledSites, small)
	for k := 0; k < lpRefInputs; k++ {
		traces, err := engine.GenerateTraces(stairTrace(horizonDays(small), subSeed(seed, k)))
		if err != nil {
			return nil, err
		}
		rep, err := planStair(opts, traces, opCtx{})
		if err != nil {
			return nil, err
		}
		t[stairKey] = append(t[stairKey], rep.TotalCostUSD)
		out, err := planCoupled(geoFleet(lpSites, lpDays, subSeed(seed, k)))
		if err != nil {
			return nil, err
		}
		t[coupledKey] = append(t[coupledKey], out.cost)
	}
	gSites, gDays := geoShape(geoSites, small)
	greedyKey := fmt.Sprintf("geo.greedy.%s.%d", size, seed)
	for k := 0; k < geoFleets; k++ {
		res, err := runFleet(geoFleet(gSites, gDays, subSeed(seed, k)), geo.RouterGreedy)
		if err != nil {
			return nil, err
		}
		t[greedyKey] = append(t[greedyKey], res.TotalCostUSD)
	}
	return t, nil
}
