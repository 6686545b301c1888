package main

import (
	"fmt"
	"math"
	"math/rand"

	"plum/internal/adapt"
	"plum/internal/core"
	"plum/internal/fault"
	"plum/internal/geom"
	"plum/internal/mesh"
	"plum/internal/meshgen"
	"plum/internal/partition"
	"plum/internal/solver"
)

// benchWorkers pins Config.Workers so the modeled critical-path figures do
// not depend on the host's CPU count.
const benchWorkers = 2

// workload is one named family of inputs. Names are stable: later issues
// cite them. Why each exists is in BENCHMARK.json (one line) and README.md
// (with the measured shares).
type workload struct {
	Name string
	// Inputs is how many inputs a run draws from its seed. Repetition i runs
	// on input i mod Inputs, and the default run is one pass over them. The
	// count is what the workload's slowest repetition leaves room for.
	Inputs int
	// scenario generates input d of the run. toy shrinks mesh, P and cycle
	// count for the smoke test.
	scenario func(d draw, toy bool) scenario
}

// scenario is one generated input: everything the framework receives. The
// program under test never sees the seed itself.
type scenario struct {
	Inputs  string // the input in words, for the output document
	Cycles  int
	newMesh func() *mesh.Mesh
	field   func(geom.Vec3) float64 // initial solver field
	cfg     core.Config
	// refine returns the region whose edges cycle c marks for refinement,
	// sized on the current mesh.
	refine func(m *mesh.Mesh, c int) geom.Region
	// coarsen returns the region cycle c coarsens before it refines; nil
	// for the refine-only workloads.
	coarsen func(c int) geom.Region
}

// draw is what one input is generated from: its own seed, for Config.Seed
// and the fault plan, and where in a grid cell the marking region's centre
// sits, per axis in [-0.5, 0.5).
//
// The meshes are structured grids, so how a region cuts them repeats with
// the cell, and one cell is the whole range of alignments. A run's inputs
// are spaced evenly over that range from an offset the seed picks: every
// seed gives other inputs, and every run covers the range, so a run's
// figures do not depend on which corner of the cell its seed fell in.
type draw struct {
	Seed int64
	Cell [3]float64
}

// draws returns the n draws of a run.
func draws(seed int64, n int) []draw {
	rng := rand.New(rand.NewSource(seed))
	var offset [3]float64
	for k := range offset {
		offset[k] = rng.Float64()
	}
	ds := make([]draw, n)
	for i := range ds {
		ds[i].Seed = rng.Int63()
		for k := range offset {
			_, frac := math.Modf(offset[k] + float64(i)/float64(n))
			ds[i].Cell[k] = frac - 0.5
		}
	}
	return ds
}

// rotor returns the rotor-disk parameters, shrunk for the smoke test the
// way cmd/plum -scale shrinks them.
func rotor(toy bool) meshgen.RotorParams {
	rp := meshgen.DefaultRotor()
	if toy {
		s := math.Cbrt(0.05)
		rp.NR = max(2, int(float64(rp.NR)*s))
		rp.NTheta = max(2, int(float64(rp.NTheta)*s))
		rp.NZ = max(2, int(float64(rp.NZ)*s))
	}
	return rp
}

// arcPoint is the point at fraction t of the sweep on the rotor's
// mid-radius arc, displaced by cell (in grid cells, per cylindrical axis).
func arcPoint(rp meshgen.RotorParams, t float64, cell [3]float64) geom.Vec3 {
	r := (rp.R0+rp.R1)/2 + cell[0]*(rp.R1-rp.R0)/float64(rp.NR)
	th := (t + cell[1]/float64(rp.NTheta)) * rp.Sweep
	return geom.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th), Z: cell[2] * rp.Height / float64(rp.NZ)}
}

// wake is the half-space a fixed distance behind a front moving in +x. Its
// face is tilted off the box grid's planes, so that it does not sweep a
// whole lattice plane of edge midpoints in or out at once.
type wake struct {
	front  geom.Vec3
	behind float64
}

var wakeNormal = geom.Vec3{X: 1, Y: 0.08, Z: 0.05}.Scale(1 / geom.Vec3{X: 1, Y: 0.08, Z: 0.05}.Norm())

func (w wake) Contains(p geom.Vec3) bool { return p.Sub(w.front).Dot(wakeNormal) < -w.behind }

// rotorScenario is the part the four rotor workloads share: the mesh, the
// solver field, and a config with the benchmark's pinned knobs.
func rotorScenario(d draw, toy bool, p int, method partition.Method, cycles int) (scenario, meshgen.RotorParams) {
	rp := rotor(toy)
	cfg := core.DefaultConfig(p)
	if toy {
		cfg.P = min(p, 64)
		cycles = 2
	}
	cfg.Method = method
	cfg.Seed = d.Seed
	cfg.Workers = benchWorkers
	return scenario{
		Cycles:  cycles,
		newMesh: func() *mesh.Mesh { return meshgen.RotorDisk(rp) },
		field:   solver.GaussianPulse(arcPoint(rp, 0.5, [3]float64{}), 0.3),
		cfg:     cfg,
	}, rp
}

// localSphere is cmd/plum's Local_1 marking at a chosen centre: the sphere
// holding frac of the current mesh's active edge midpoints.
func localSphere(c geom.Vec3, frac float64) func(*mesh.Mesh, int) geom.Region {
	return func(m *mesh.Mesh, _ int) geom.Region { return adapt.SphereForFraction(m, c, frac) }
}

var workloads = []workload{
	{
		Name:   "rotor-adapt",
		Inputs: 4,
		scenario: func(d draw, toy bool) scenario {
			sc, rp := rotorScenario(d, toy, 8, partition.MethodHilbertSFC, 5)
			sc.refine = localSphere(arcPoint(rp, 0.5, d.Cell), 0.05)
			sc.Inputs = fmt.Sprintf("RotorDisk %dx%dx%d, P=%d, hilbert, bulk/flat, %d cycles, 5%% sphere at the mid-arc point", rp.NR, rp.NTheta, rp.NZ, sc.cfg.P, sc.Cycles)
			return sc
		},
	},
	{
		Name:   "rotor-repart",
		Inputs: 6,
		scenario: func(d draw, toy bool) scenario {
			sc, rp := rotorScenario(d, toy, 64, partition.MethodMultilevel, 6)
			cycles := sc.Cycles
			sc.refine = func(m *mesh.Mesh, c int) geom.Region {
				t := 0.25 + 0.5*float64(c)/float64(cycles)
				return adapt.SphereForFraction(m, arcPoint(rp, t, d.Cell), 0.01)
			}
			sc.Inputs = fmt.Sprintf("RotorDisk %dx%dx%d, P=%d, multilevel, bulk/flat, %d cycles, 1%% sphere advancing along the mid-radius arc", rp.NR, rp.NTheta, rp.NZ, sc.cfg.P, sc.Cycles)
			return sc
		},
	},
	{
		Name:   "highp-reassign",
		Inputs: 2,
		scenario: func(d draw, toy bool) scenario {
			sc, rp := rotorScenario(d, toy, 2048, partition.MethodHilbertSFC, 3)
			sc.refine = localSphere(arcPoint(rp, 0.5, d.Cell), 0.05)
			sc.Inputs = fmt.Sprintf("RotorDisk %dx%dx%d, P=%d, hilbert, bulk/flat, %d cycles, 5%% sphere at the mid-arc point", rp.NR, rp.NTheta, rp.NZ, sc.cfg.P, sc.Cycles)
			return sc
		},
	},
	{
		Name:   "faulty-stream",
		Inputs: 5,
		scenario: func(d draw, toy bool) scenario {
			sc, rp := rotorScenario(d, toy, 16, partition.MethodHilbertSFC, 4)
			sc.refine = localSphere(arcPoint(rp, 0.5, d.Cell), 0.05)
			sc.cfg.Overlap = true
			sc.cfg.Exchange = "aggregated"
			sc.cfg.Checkpoint = true
			sc.cfg.Faults = &fault.Plan{Seed: d.Seed, Rate: 0.05, Kinds: []fault.Kind{fault.Drop, fault.Corrupt, fault.Crash}}
			sc.Inputs = fmt.Sprintf("RotorDisk %dx%dx%d, P=%d, hilbert, overlap/streaming, aggregated exchange, checkpoints, faults rate=0.05 kinds=drop+corrupt+crash, %d cycles", rp.NR, rp.NTheta, rp.NZ, sc.cfg.P, sc.Cycles)
			return sc
		},
	},
	{
		Name:   "sweep-coarsen",
		Inputs: 3,
		scenario: func(d draw, toy bool) scenario {
			nx, ny, nz, cycles := 24, 8, 8, 8
			if toy {
				nx, ny, nz, cycles = 6, 2, 2, 2
			}
			size := geom.Vec3{X: 3, Y: 1, Z: 1}
			front := func(c int) geom.Vec3 {
				return geom.Vec3{
					X: 0.25 + d.Cell[0]*size.X/float64(nx) + 2.5*float64(c)/float64(cycles),
					Y: 0.5 + d.Cell[1]*size.Y/float64(ny),
					Z: 0.5 + d.Cell[2]*size.Z/float64(nz),
				}
			}
			cfg := core.DefaultConfig(16)
			cfg.Method = partition.MethodHilbertSFC
			cfg.Seed = d.Seed
			cfg.Workers = benchWorkers
			return scenario{
				Inputs:  fmt.Sprintf("Box %dx%dx%d over 3x1x1, P=16, hilbert, %d cycles, coarsen the wake then refine a radius-0.45 sphere advancing in x", nx, ny, nz, cycles),
				Cycles:  cycles,
				newMesh: func() *mesh.Mesh { return meshgen.Box(nx, ny, nz, size) },
				field:   solver.GaussianPulse(front(0), 0.3),
				cfg:     cfg,
				refine: func(_ *mesh.Mesh, c int) geom.Region {
					return geom.Sphere{Center: front(c), Radius: 0.45}
				},
				coarsen: func(c int) geom.Region { return wake{front: front(c), behind: 0.4} },
			}
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
