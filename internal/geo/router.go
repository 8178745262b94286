package geo

import (
	"github.com/smartdpss/smartdpss/internal/trace"
)

// routeGreedy computes the online routing: per slot, move delay-sensitive
// demand from the most expensive sites to cheaper ones while the
// real-time price gap exceeds the importer's latency penalty, bounded by
// the importer's spare routing capacity and the exporter's remaining
// home demand. The router observes only slot-τ quantities (that slot's
// real-time prices and home demands), so it is informationally online
// even though Run precomputes the whole horizon before stepping.
//
// All orderings are deterministic: sites sort by price with the site
// index as tie-break, and every float operation is a fixed sequential
// reduction, so the routing is byte-identical across runs and platforms.
func routeGreedy(sites []SiteSpec, sets []*trace.Set, slotHours float64) [][]float64 {
	n := len(sites)
	H := sets[0].Horizon()
	routed := make([][]float64, n)
	for s := range routed {
		routed[s] = make([]float64, H)
	}

	capMWh := make([]float64, n)
	penalty := make([]float64, n)
	for s := range sites {
		capMWh[s] = sites[s].Options.PeakMW * slotHours
		penalty[s] = sites[s].ImportPenaltyUSDPerMWh
	}

	price := make([]float64, n)
	placed := make([]float64, n)  // current post-routing demand
	movable := make([]float64, n) // home demand still exportable
	importers := make([]int, n)   // ascending price + penalty
	exporters := make([]int, n)   // descending price

	const eps = 1e-9
	for i := 0; i < H; i++ {
		for s := 0; s < n; s++ {
			price[s] = sets[s].PriceRT.At(i)
			home := sets[s].DemandDS.At(i)
			placed[s] = home
			movable[s] = home
			importers[s] = s
			exporters[s] = s
		}
		// Insertion sorts: stable by construction, index tie-break via
		// strict comparison on (key, index) pairs already in index order.
		sortByKey(importers, func(s int) float64 { return price[s] + penalty[s] })
		sortByKey(exporters, func(s int) float64 { return -price[s] })

		for _, x := range exporters {
			if movable[x] <= eps {
				continue
			}
			for _, c := range importers {
				if c == x {
					continue
				}
				if price[c]+penalty[c] >= price[x]-eps {
					break // importers only get more expensive from here
				}
				spare := 0.0
				if capMWh[c] > 0 {
					spare = capMWh[c] - placed[c]
				} else {
					spare = movable[x] // uncapped importer
				}
				if spare <= eps {
					continue
				}
				move := movable[x]
				if spare < move {
					move = spare
				}
				placed[x] -= move
				placed[c] += move
				movable[x] -= move
				if movable[x] <= eps {
					break
				}
			}
		}
		for s := 0; s < n; s++ {
			v := placed[s]
			if v < 0 {
				v = 0
			}
			routed[s][i] = v
		}
	}
	return routed
}

// sortByKey insertion-sorts idx ascending by key with the site index as
// tie-break (idx starts in index order, and insertion sort is stable).
func sortByKey(idx []int, key func(int) float64) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		k := key(v)
		j := i - 1
		for j >= 0 && key(idx[j]) > k {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}
