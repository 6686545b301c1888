// Package meshio serializes meshes for restarts and visualization — the
// two uses the paper gives for its finalization phase ("storing a snapshot
// of a grid for future restarts", "post processing tasks, such as
// visualization"). A compact binary format round-trips the full adaptive
// state (refinement forest included); a legacy-VTK text writer exports the
// active mesh with optional vertex fields for external viewers.
package meshio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"plum/internal/mesh"
)

// magic identifies the binary snapshot format; bump version on layout
// changes.
const (
	magic   = 0x504c554d // "PLUM"
	version = 1
)

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u32(x uint32) {
	if w.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], x)
	_, w.err = w.w.Write(b[:])
}

func (w *writer) i32(x int32) { w.u32(uint32(x)) }

func (w *writer) f64(x float64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	_, w.err = w.w.Write(b[:])
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	_, r.err = io.ReadFull(r.r, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	_, r.err = io.ReadFull(r.r, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Write serializes the full mesh state (including the refinement forest
// and dead-object slots, so ids remain stable across a round trip).
func Write(out io.Writer, m *mesh.Mesh) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.u32(magic)
	w.u32(version)

	w.u32(uint32(len(m.Verts)))
	for i := range m.Verts {
		v := &m.Verts[i]
		w.f64(v.Pos.X)
		w.f64(v.Pos.Y)
		w.f64(v.Pos.Z)
		w.u32(boolBit(v.Dead))
		w.u32(uint32(len(v.Edges)))
		for _, e := range v.Edges {
			w.i32(int32(e))
		}
	}

	w.u32(uint32(len(m.Edges)))
	for i := range m.Edges {
		e := &m.Edges[i]
		w.i32(int32(e.V[0]))
		w.i32(int32(e.V[1]))
		w.i32(int32(e.Parent))
		w.i32(int32(e.Child[0]))
		w.i32(int32(e.Child[1]))
		w.i32(int32(e.Mid))
		w.u32(boolBit(e.Dead))
		w.u32(uint32(len(e.Elems)))
		for _, t := range e.Elems {
			w.i32(int32(t))
		}
	}

	w.u32(uint32(len(m.Elems)))
	for i := range m.Elems {
		t := &m.Elems[i]
		for _, v := range t.V {
			w.i32(int32(v))
		}
		for _, e := range t.E {
			w.i32(int32(e))
		}
		w.i32(int32(t.Parent))
		w.i32(int32(t.Root))
		w.i32(t.Level)
		w.u32(boolBit(t.Dead))
		w.u32(uint32(len(t.Children)))
		for _, c := range t.Children {
			w.i32(int32(c))
		}
	}

	w.u32(uint32(len(m.Faces)))
	for i := range m.Faces {
		f := &m.Faces[i]
		for _, v := range f.V {
			w.i32(int32(v))
		}
		for _, e := range f.E {
			w.i32(int32(e))
		}
		w.i32(f.Patch)
		w.i32(int32(f.Parent))
		w.u32(boolBit(f.Dead))
		w.u32(uint32(len(f.Children)))
		for _, c := range f.Children {
			w.i32(int32(c))
		}
	}

	if w.err != nil {
		return fmt.Errorf("meshio: write: %w", w.err)
	}
	return w.w.Flush()
}

// Read deserializes a snapshot written by Write and reconstructs all
// derived state (the active-object counters).
func Read(in io.Reader) (*mesh.Mesh, error) {
	r := &reader{r: bufio.NewReader(in)}
	if r.u32() != magic {
		return nil, fmt.Errorf("meshio: bad magic")
	}
	if v := r.u32(); v != version {
		return nil, fmt.Errorf("meshio: unsupported version %d", v)
	}

	nv := int(r.u32())
	if r.err != nil {
		return nil, fmt.Errorf("meshio: truncated header: %w", r.err)
	}
	verts := make([]mesh.Vertex, nv)
	for i := range verts {
		verts[i].Pos.X = r.f64()
		verts[i].Pos.Y = r.f64()
		verts[i].Pos.Z = r.f64()
		verts[i].Dead = r.u32() != 0
		ne := int(r.u32())
		if r.err != nil {
			return nil, fmt.Errorf("meshio: truncated vertex %d: %w", i, r.err)
		}
		verts[i].Edges = make([]mesh.EdgeID, ne)
		for j := range verts[i].Edges {
			verts[i].Edges[j] = mesh.EdgeID(r.i32())
		}
	}

	nE := int(r.u32())
	edges := make([]mesh.Edge, nE)
	for i := range edges {
		e := &edges[i]
		e.V[0] = mesh.VertID(r.i32())
		e.V[1] = mesh.VertID(r.i32())
		e.Parent = mesh.EdgeID(r.i32())
		e.Child[0] = mesh.EdgeID(r.i32())
		e.Child[1] = mesh.EdgeID(r.i32())
		e.Mid = mesh.VertID(r.i32())
		e.Dead = r.u32() != 0
		n := int(r.u32())
		if r.err != nil {
			return nil, fmt.Errorf("meshio: truncated edge %d: %w", i, r.err)
		}
		e.Elems = make([]mesh.ElemID, n)
		for j := range e.Elems {
			e.Elems[j] = mesh.ElemID(r.i32())
		}
	}

	nT := int(r.u32())
	elems := make([]mesh.Element, nT)
	for i := range elems {
		t := &elems[i]
		for j := range t.V {
			t.V[j] = mesh.VertID(r.i32())
		}
		for j := range t.E {
			t.E[j] = mesh.EdgeID(r.i32())
		}
		t.Parent = mesh.ElemID(r.i32())
		t.Root = mesh.ElemID(r.i32())
		t.Level = r.i32()
		t.Dead = r.u32() != 0
		n := int(r.u32())
		if r.err != nil {
			return nil, fmt.Errorf("meshio: truncated element %d: %w", i, r.err)
		}
		if n > 0 {
			t.Children = make([]mesh.ElemID, n)
			for j := range t.Children {
				t.Children[j] = mesh.ElemID(r.i32())
			}
		}
	}

	nF := int(r.u32())
	faces := make([]mesh.BoundaryFace, nF)
	for i := range faces {
		f := &faces[i]
		for j := range f.V {
			f.V[j] = mesh.VertID(r.i32())
		}
		for j := range f.E {
			f.E[j] = mesh.EdgeID(r.i32())
		}
		f.Patch = r.i32()
		f.Parent = mesh.FaceID(r.i32())
		f.Dead = r.u32() != 0
		n := int(r.u32())
		if r.err != nil {
			return nil, fmt.Errorf("meshio: truncated face %d: %w", i, r.err)
		}
		if n > 0 {
			f.Children = make([]mesh.FaceID, n)
			for j := range f.Children {
				f.Children[j] = mesh.FaceID(r.i32())
			}
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("meshio: read: %w", r.err)
	}
	return mesh.Restore(verts, edges, elems, faces), nil
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// WriteVTK exports the active mesh as legacy-VTK unstructured-grid text
// (readable by ParaView/VisIt). fields maps names to per-vertex scalar
// data; nil entries are skipped.
func WriteVTK(out io.Writer, m *mesh.Mesh, fields map[string][]float64) error {
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "# vtk DataFile Version 3.0")
	fmt.Fprintln(w, "plum adaptive tetrahedral mesh")
	fmt.Fprintln(w, "ASCII")
	fmt.Fprintln(w, "DATASET UNSTRUCTURED_GRID")

	// Compact live-vertex numbering for the file.
	vmap := make([]int32, len(m.Verts))
	nv := int32(0)
	for i := range m.Verts {
		if m.Verts[i].Dead {
			vmap[i] = -1
			continue
		}
		vmap[i] = nv
		nv++
	}
	fmt.Fprintf(w, "POINTS %d double\n", nv)
	for i := range m.Verts {
		if m.Verts[i].Dead {
			continue
		}
		p := m.Verts[i].Pos
		fmt.Fprintf(w, "%g %g %g\n", p.X, p.Y, p.Z)
	}

	nt := 0
	for i := range m.Elems {
		if m.Elems[i].Active() {
			nt++
		}
	}
	fmt.Fprintf(w, "CELLS %d %d\n", nt, nt*5)
	for i := range m.Elems {
		t := &m.Elems[i]
		if !t.Active() {
			continue
		}
		fmt.Fprintf(w, "4 %d %d %d %d\n", vmap[t.V[0]], vmap[t.V[1]], vmap[t.V[2]], vmap[t.V[3]])
	}
	fmt.Fprintf(w, "CELL_TYPES %d\n", nt)
	for i := 0; i < nt; i++ {
		fmt.Fprintln(w, 10) // VTK_TETRA
	}

	if len(fields) > 0 {
		fmt.Fprintf(w, "POINT_DATA %d\n", nv)
		for name, data := range fields {
			if data == nil {
				continue
			}
			fmt.Fprintf(w, "SCALARS %s double 1\nLOOKUP_TABLE default\n", name)
			for i := range m.Verts {
				if m.Verts[i].Dead {
					continue
				}
				v := 0.0
				if i < len(data) {
					v = data[i]
				}
				fmt.Fprintf(w, "%g\n", v)
			}
		}
	}
	return w.Flush()
}
