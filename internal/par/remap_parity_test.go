package par

import (
	"reflect"
	"testing"

	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/meshgen"
	"plum/internal/partition"
)

// bigFixture distributes a 10368-element box mesh over p ranks, plus a
// reassignment that migrates a mixed set of trees.
func bigFixture(t testing.TB, p int) (*Dist, []int32) {
	t.Helper()
	m := meshgen.Box(12, 12, 12, geom.Vec3{X: 1, Y: 1, Z: 1})
	g := dual.Build(m)
	asg := partition.Partition(g, p, partition.MethodHilbertSFC)
	d := NewDist(m, p, asg)
	// Migrate about a third of the trees with a deterministic mix of
	// small rotations, leaving the rest put — many flows, all shapes.
	newOwner := d.Owners()
	for v := range newOwner {
		switch v % 3 {
		case 0:
			newOwner[v] = (newOwner[v] + 1) % int32(p)
		case 1:
			if v%6 == 1 {
				newOwner[v] = (newOwner[v] + int32(p) - 1) % int32(p)
			}
		}
	}
	return d, newOwner
}

// TestRemapResultDeterministic is the regression test for the modeled-time
// nondeterminism of the map-based collector: two identical runs must
// produce bit-identical RemapResults (PackTime/CommTime/WordsMoved were
// previously summed in map iteration order).
func TestRemapResultDeterministic(t *testing.T) {
	const p = 8
	run := func() RemapResult {
		d, newOwner := bigFixture(t, p)
		res, err := d.ExecuteRemap(newOwner, machine.SP2())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical remaps differ:\n  %+v\n  %+v", a, b)
	}
}
