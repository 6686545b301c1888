package par

import (
	"errors"
	"fmt"

	"plum/internal/machine"
)

// FinalizeResult reports the finalization phase: connecting the individual
// subgrids into one global mesh on a host processor (needed for
// visualization and restarts, per the paper).
type FinalizeResult struct {
	// Elems is the number of elements gathered: the active element count
	// of the ground-truth mesh.
	Elems int64
	// Words is the gathered data volume.
	Words int64
	// Time is the modeled gather time.
	Time float64
}

// finalizeWords is the size of one gathered element record:
// (elemID, v0..v3). Element ids are already global, so the records need
// no renumbering.
const finalizeWords = 5

// Finalize models the finalization phase: every surviving rank sends its
// active local elements to the host, the lowest surviving rank, which
// concatenates them into a global mesh. Like the remap, the gather is
// charged to the machine model rather than moved: each live sender pays
// one message of its records, and the host pays their receive cost
// serially. Dead ranks send nothing: it fails when one still owns
// elements (survivor recovery moves them all), or when no rank survives
// to host the gather.
func (d *Dist) Finalize(mdl machine.Model) (FinalizeResult, error) {
	alive := d.Alive()
	if len(alive) == 0 {
		return FinalizeResult{}, errors.New("par: finalize: no surviving rank to host the gather")
	}
	loads := d.RankLoads()
	for r, dead := range d.dead {
		if dead && loads[r] > 0 {
			return FinalizeResult{}, fmt.Errorf("par: finalize: dead rank %d owns %d elements", r, loads[r])
		}
	}
	host := int(alive[0])
	res := FinalizeResult{}
	clk := machine.NewClock(d.P)
	for _, r := range alive {
		res.Elems += loads[r]
		if int(r) == host {
			continue
		}
		words := loads[r] * finalizeWords
		res.Words += words
		clk.Add(int(r), mdl.MsgTime(words))
		clk.Add(host, float64(words)*mdl.UnpackWord)
	}
	clk.Barrier()
	res.Time = clk.Elapsed()
	return res, nil
}
