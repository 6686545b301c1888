package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/geom"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/remap"
)

// TestPredictedRemapIsExecuted pins the acceptance rule's price to the
// clock: the remap a balance pass predicts from its mapping's flows
// (BalanceReport.Predicted, what Cost charges) is the remap ExecuteRemap
// then charges, bit for bit, on every accepted fault-free pass — at low
// and high P, under both exchange schedules, and after crashes left a
// compacted survivor set whose positions the decision maps back to ranks.
func TestPredictedRemapIsExecuted(t *testing.T) {
	rp := meshgen.DefaultRotor()
	rp.NR, rp.NTheta, rp.NZ = 10, 11, 11 // 7260 elements
	centre := geom.Vec3{X: 1.4 * math.Cos(rp.Sweep/2), Y: 1.4 * math.Sin(rp.Sweep/2)}
	for _, p := range []int{8, 64, 2048} {
		for _, exch := range []string{"flat", "aggregated"} {
			for _, dead := range []bool{false, true} {
				name := fmt.Sprintf("P=%d/%s/dead=%v", p, exch, dead)
				cfg := DefaultConfig(p)
				cfg.Method = partition.MethodHilbertSFC
				cfg.Exchange = exch
				f, err := New(meshgen.RotorDisk(rp), nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if dead {
					// Ranks 1 and p/2+1 die; their trees go to rank 0, so
					// the first pass balances over p−2 compacted survivors.
					dead := []int{1, p/2 + 1}
					owners := f.D.Owners()
					for v, o := range owners {
						if int(o) == dead[0] || int(o) == dead[1] {
							owners[v] = 0
						}
					}
					f.D.SetOwners(owners)
					f.D.MarkDead(dead)
					checkProposalFlows(t, name, f)
				}
				accepted := 0
				for cyc := 0; cyc < 2; cyc++ {
					rep, err := f.Cycle(func(a *adapt.Adaptor) {
						a.MarkRegion(adapt.SphereForFraction(a.M, centre, 0.05), adapt.MarkRefine)
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					b := rep.Balance
					if !b.Accepted {
						continue
					}
					accepted++
					pr, ex := b.Predicted, b.Remap
					if pr.Total != ex.Total || pr.PackTime != ex.PackTime || pr.CommTime != ex.CommTime ||
						pr.RebuildTime != ex.RebuildTime || pr.Setups != ex.Setups || pr.SetupTime != ex.SetupTime ||
						pr.WordsMoved != ex.WordsMoved || pr.Moved != ex.Moved || pr.Sets != ex.Sets {
						t.Errorf("%s cycle %d: predicted remap %+v, executed %+v", name, cyc, pr, ex)
					}
					if b.CostFull != pr.Total+(b.RepartitionTime+b.ReassignTime) {
						t.Errorf("%s cycle %d: CostFull %.17g does not charge the predicted remap %.17g",
							name, cyc, b.CostFull, pr.Total)
					}
				}
				if accepted == 0 {
					t.Errorf("%s: no pass accepted, nothing compared", name)
				}
			}
		}
	}
}

// checkProposalFlows holds the flows the decision prices to an oracle:
// the (old owner, new owner) element sums of every dual vertex the
// proposal moves, by rank. With dead ranks the similarity rows and the
// mapping are survivor positions, so a flow list left in positions names
// the wrong ranks — which a slowest-rank total cannot see.
func checkProposalFlows(t *testing.T, name string, f *Framework) {
	t.Helper()
	f.G.UpdateWeights(f.M)
	alive := f.D.Alive()
	pr, err := f.propose(alive)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[[2]int32]int64{}
	var want []remap.Flow
	oldOwner := f.D.Owners()
	for v, dst := range pr.owners(alive) {
		if src := oldOwner[v]; src != dst {
			sums[[2]int32{src, dst}] += f.G.Wremap[v]
		}
	}
	for k, e := range sums {
		want = append(want, remap.Flow{Src: k[0], Dst: k[1], Elems: e})
	}
	slices.SortFunc(want, func(a, b remap.Flow) int {
		if a.Src != b.Src {
			return int(a.Src - b.Src)
		}
		return int(a.Dst - b.Dst)
	})
	if got := pr.flows(alive); !slices.Equal(got, want) {
		t.Errorf("%s: the decision prices %d flows, the proposal moves %d (first %v vs %v)",
			name, len(got), len(want), got[:min(3, len(got))], want[:min(3, len(want))])
	}
}
