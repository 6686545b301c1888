package par

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"plum/internal/adapt"
	"plum/internal/dual"
	"plum/internal/geom"
	"plum/internal/machine"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/propagate"
)

// bruteSPLs builds the shared-processor list of every edge and vertex by
// brute force from OwnerOf: each active element puts its owner on the
// lists of its six edges and four vertices.
func bruteSPLs(d *Dist) (edges, verts [][]int32) {
	m := d.M
	edges, verts = make([][]int32, len(m.Edges)), make([][]int32, len(m.Verts))
	for i := range m.Elems {
		t := &m.Elems[i]
		if !t.Active() {
			continue
		}
		r := d.OwnerOf(mesh.ElemID(i))
		for _, e := range t.E {
			edges[e] = append(edges[e], r)
		}
		for _, v := range t.V {
			verts[v] = append(verts[v], r)
		}
	}
	for _, lists := range [][][]int32{edges, verts} {
		for i, l := range lists {
			slices.Sort(l)
			lists[i] = slices.Compact(l)
		}
	}
	return edges, verts
}

// checkSPLs compares the slab-based list of every live edge and vertex of
// d with the brute-force one.
func checkSPLs(d *Dist) error {
	edges, verts := bruteSPLs(d)
	var buf []int32
	for e := range d.M.Edges {
		if d.M.Edges[e].Dead {
			continue
		}
		if buf = d.edgeSPL(buf[:0], mesh.EdgeID(e)); !slices.Equal(buf, edges[e]) {
			return fmt.Errorf("edge %d: SPL %v, brute force %v", e, buf, edges[e])
		}
	}
	for v := range d.M.Verts {
		if d.M.Verts[v].Dead {
			continue
		}
		if buf = d.vertSPL(buf[:0], mesh.VertID(v)); !slices.Equal(buf, verts[v]) {
			return fmt.Errorf("vertex %d: SPL %v, brute force %v", v, buf, verts[v])
		}
	}
	return nil
}

// oracleVertSPL is the vertex SPL as the probes derived it before the
// owner slab: the owners, through OwnerOf, of the elements on v's edges,
// sorted and deduplicated.
func oracleVertSPL(d *Dist, v mesh.VertID) []int32 {
	var s []int32
	for _, e := range d.M.VertEdges(v) {
		for _, el := range d.M.EdgeElems(e) {
			s = append(s, d.OwnerOf(el))
		}
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// oracleClassifyPairs is the classification scan before the per-vertex
// SPL cache, run serially: it settles once per endpoint whether its SPL
// names more than one rank, then derives both endpoint SPLs again for
// every edge whose two endpoints do.
func oracleClassifyPairs(d *Dist, edgesBefore int) []propagate.PairWords {
	m := d.M
	const (
		wanted = 1
		shared = 2
	)
	flag := make([]uint8, len(m.Verts))
	classified := m.Edges[edgesBefore:]
	for i := range classified {
		if ed := &classified[i]; !ed.Dead && ed.Parent == mesh.InvalidEdge {
			flag[ed.V[0]], flag[ed.V[1]] = wanted, wanted
		}
	}
	for v := range flag {
		if flag[v] == wanted {
			flag[v] = 0
			if len(oracleVertSPL(d, mesh.VertID(v))) > 1 {
				flag[v] = shared
			}
		}
	}
	var out []propagate.PairWords
	for i := range classified {
		ed := &classified[i]
		if ed.Dead || ed.Parent != mesh.InvalidEdge || flag[ed.V[0]] != shared || flag[ed.V[1]] != shared {
			continue
		}
		inter := intersectSorted(nil, oracleVertSPL(d, ed.V[0]), oracleVertSPL(d, ed.V[1]))
		if len(inter) > 1 {
			out = propagate.PairsFromSPL(out, inter, 2)
		}
	}
	return out
}

// checkClassify compares the cached classification of the edges created
// at or after edgesBefore with the oracle's, reading the owner slab as the
// last pass left it. It returns the number of raw pairs.
func checkClassify(d *Dist, edgesBefore int) (int, error) {
	got, want := d.classifyPairs(edgesBefore), oracleClassifyPairs(d, edgesBefore)
	if !slices.Equal(got, want) {
		return 0, fmt.Errorf("classification: %d raw pairs, oracle %d", len(got), len(want))
	}
	return len(got), nil
}

// TestEdgeAndVertSPL holds the slab-based SPLs and the cached
// classification to their oracles through refine → remap → coarsen (with
// its compaction) → refine, at P from two ranks to one rank per ~23
// elements.
func TestEdgeAndVertSPL(t *testing.T) {
	mdl := machine.SP2()
	for _, p := range []int{2, 64, 2048} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			m := meshgen.Box(20, 20, 20, geom.Vec3{X: 1, Y: 1, Z: 1})
			g := dual.Build(m)
			d := NewDist(m, p, partition.Partition(g, p, partition.MethodHilbertSFC))
			a := adapt.New(m)
			d.Init()
			if err := checkSPLs(d); err != nil {
				t.Fatalf("initial mesh: %v", err)
			}
			refine := func(step string, c geom.Vec3) {
				a.MarkRegion(geom.Sphere{Center: c, Radius: 0.3}, adapt.MarkRefine)
				edgesBefore := len(m.Edges)
				d.ParallelRefine(a, mdl)
				pairs, err := checkClassify(d, edgesBefore)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if pairs == 0 {
					t.Fatalf("%s: no new edge classified shared", step)
				}
				if err := checkSPLs(d); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			refine("first refinement", geom.Vec3{X: 0.35, Y: 0.4, Z: 0.45})

			g.UpdateWeights(m)
			if _, err := d.ExecuteRemap(partition.Partition(g, p, partition.MethodMortonSFC), mdl); err != nil {
				t.Fatal(err)
			}
			a.MarkRegion(geom.AABB{Max: geom.Vec3{X: 0.5, Y: 1, Z: 1}}, adapt.MarkCoarsen)
			if st, _ := d.ParallelCoarsen(a, mdl); st.ElemsRemoved == 0 {
				t.Fatal("the coarsening removed nothing")
			}
			d.fillOwn(0) // the compaction renumbered the elements the slab covered
			if err := checkSPLs(d); err != nil {
				t.Fatalf("after remap and coarsening: %v", err)
			}
			refine("second refinement", geom.Vec3{X: 0.6, Y: 0.55, Z: 0.5})
		})
	}
}

// FuzzSPL drives a distributed mesh through one script of
// ParallelRefine, ParallelCoarsen and SetOwners steps. The fuzz bytes pick
// the box, P ≤ 64, the per-root owners and the script. After every step
// each refinement's classification must equal the oracle's, and every
// slab-based SPL the brute-force one.
func FuzzSPL(f *testing.F) {
	f.Add([]byte{0x2b, 0x07, 0x11, 0x20, 0x05, 0x82}) // refine, coarsen it, new owners
	f.Add([]byte{0x9f, 0x3f, 0x02, 0x03, 0x44, 0x21}) // random refine, refine, coarsen; blocky owners
	f.Add([]byte{0x00, 0x01, 0x00, 0x00})             // one tet row, one rank
	f.Add([]byte{0xff, 0x40, 0x7d, 0x23, 0x06, 0x30, 0xe7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 4 {
			return
		}
		dims := int(script[0])
		nx, ny, nz := 1+dims%8, 1+dims/8%8, 1+dims/64%4
		size := geom.Vec3{X: float64(nx), Y: float64(ny), Z: float64(nz)}
		p := 1 + int(script[1])%64
		// Even byte: contiguous blocks of roots per rank; odd: seeded random.
		ownersOf := func(n int, b byte) []int32 {
			o := make([]int32, n)
			rng := rand.New(rand.NewSource(int64(b)))
			for i := range o {
				o[i] = int32(i * p / n)
				if b&1 != 0 {
					o[i] = int32(rng.Intn(p))
				}
			}
			return o
		}
		m := meshgen.Box(nx, ny, nz, size)
		d, a := NewDist(m, p, ownersOf(len(m.Elems), script[2])), adapt.New(m)
		mdl := machine.SP2()
		for step, b := range script[3:min(len(script), 7)] {
			// Bits 0-1 pick the operation, the rest where the sphere sits.
			centre := geom.Vec3{X: size.X * float64(b>>2&3) / 3, Y: size.Y * float64(b>>4&1), Z: size.Z * float64(b>>5&1)}
			region := geom.Sphere{Center: centre, Radius: 0.9}
			edgesBefore := len(m.Edges)
			switch b & 3 {
			case 0, 3:
				if b&3 == 0 {
					a.MarkRegion(region, adapt.MarkRefine)
				} else {
					a.MarkRandom(0.1, adapt.MarkRefine, int64(b))
				}
				d.ParallelRefine(a, mdl)
				if _, err := checkClassify(d, edgesBefore); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			case 1:
				a.MarkRegion(region, adapt.MarkCoarsen)
				d.ParallelCoarsen(a, mdl)
				d.fillOwn(0)
			case 2:
				d.SetOwners(ownersOf(len(d.owner), b))
				d.fillOwn(0)
			}
			if err := checkSPLs(d); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if len(m.Elems) > 20000 {
				break
			}
		}
	})
}
