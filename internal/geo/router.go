package geo

import (
	"github.com/smartdpss/smartdpss/internal/suite"
	"github.com/smartdpss/smartdpss/internal/trace"
)

// routeChunks is the number of contiguous slot ranges the greedy router
// splits the horizon into, one suite pool job each. Every slot resets
// the router's state, so the split moves no bit; it only lets the
// router run on the pool between trace generation and stepping.
const routeChunks = 8

// routeGreedy computes the online routing: per slot, move delay-sensitive
// demand from the most expensive sites to cheaper ones while the
// real-time price gap exceeds the importer's latency penalty, bounded by
// the importer's spare routing capacity and the exporter's remaining
// home demand. The router observes only slot-τ quantities (that slot's
// real-time prices and home demands), so it is informationally online
// even though Run precomputes the whole horizon before stepping. It
// returns each site's routed series, carved from one allocation.
//
// All orderings are deterministic: sites sort by price with the site
// index as tie-break, and every float operation is a fixed sequential
// reduction, so the routing is byte-identical across runs, platforms,
// pool widths and chunk boundaries.
func routeGreedy(sites []SiteSpec, sets []*trace.Set, parallel int, tokens chan struct{}) [][]float64 {
	return routeGreedyChunks(sites, sets, parallel, tokens, routeChunks)
}

// routeGreedyChunks is routeGreedy over the given number of slot ranges
// (at most one per slot).
func routeGreedyChunks(sites []SiteSpec, sets []*trace.Set, parallel int, tokens chan struct{}, chunks int) [][]float64 {
	n := len(sites)
	H := sets[0].Horizon()
	chunks = max(1, min(chunks, H))
	fleet := make([]float64, 2*n)
	capMWh, penalty := fleet[:n], fleet[n:]
	for s := range sites {
		capMWh[s] = sites[s].Options.PeakMW
		penalty[s] = sites[s].ImportPenaltyUSDPerMWh
	}
	all := make([]float64, n*H)
	routed := make([][]float64, n)
	for s := range routed {
		routed[s] = all[s*H : (s+1)*H : (s+1)*H]
	}
	// Each job carves its scratch from one shared allocation per type:
	// five float rows and two orders of n entries.
	floats := make([]float64, chunks*5*n)
	ints := make([]int, chunks*2*n)
	_, _ = suite.MapBudget(parallel, tokens, chunks, func(c int) (struct{}, error) {
		r := router{capMWh: capMWh, penalty: penalty, sets: sets, routed: routed}
		f, o := floats[c*5*n:(c+1)*5*n], ints[c*2*n:(c+1)*2*n]
		r.price, r.importKey, r.exportKey, r.placed, r.movable = f[:n], f[n:2*n], f[2*n:3*n], f[3*n:4*n], f[4*n:]
		r.importers, r.exporters = o[:n], o[n:]
		r.route(c*H/chunks, (c+1)*H/chunks)
		return struct{}{}, nil
	})
	return routed
}

// router is one routing job's view: the fleet's caps and penalties, its
// traces and output, and the job's own per-site scratch.
type router struct {
	capMWh, penalty []float64
	sets            []*trace.Set
	routed          [][]float64

	price     []float64 // this slot's real-time price
	importKey []float64 // price + penalty: the importers' order
	exportKey []float64 // −price: the exporters' order
	placed    []float64 // current post-routing demand
	movable   []float64 // home demand still exportable
	importers []int     // ascending price + penalty
	exporters []int     // descending price
}

// route routes slots [lo, hi).
func (r *router) route(lo, hi int) {
	const eps = 1e-9
	n := len(r.price)
	for i := lo; i < hi; i++ {
		for s := 0; s < n; s++ {
			p := r.sets[s].PriceRT.Values[i]
			home := r.sets[s].DemandDS.Values[i]
			r.price[s] = p
			r.importKey[s] = p + r.penalty[s]
			r.exportKey[s] = -p
			r.placed[s] = home
			r.movable[s] = home
			r.importers[s] = s
			r.exporters[s] = s
		}
		sortByKey(r.importers, r.importKey)
		sortByKey(r.exporters, r.exportKey)

		for _, x := range r.exporters {
			if r.movable[x] <= eps {
				continue
			}
			for _, c := range r.importers {
				if c == x {
					continue
				}
				if r.importKey[c] >= r.price[x]-eps {
					break // importers only get more expensive from here
				}
				spare := 0.0
				if r.capMWh[c] > 0 {
					spare = r.capMWh[c] - r.placed[c]
				} else {
					spare = r.movable[x] // uncapped importer
				}
				if spare <= eps {
					continue
				}
				move := r.movable[x]
				if spare < move {
					move = spare
				}
				r.placed[x] -= move
				r.placed[c] += move
				r.movable[x] -= move
				if r.movable[x] <= eps {
					break
				}
			}
		}
		for s := 0; s < n; s++ {
			v := r.placed[s]
			if v < 0 {
				v = 0
			}
			r.routed[s][i] = v
		}
	}
}

// sortByKey insertion-sorts idx ascending by key[idx] with the site
// index as tie-break (idx starts in index order, and insertion sort is
// stable).
func sortByKey(idx []int, key []float64) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		k := key[v]
		j := i - 1
		for j >= 0 && key[idx[j]] > k {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}
