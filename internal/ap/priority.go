package ap

import (
	"repro/internal/airspace"
)

// PriorityProgram produces the controller's conflict-priority display
// list — conflicting aircraft ordered by time-to-conflict, most urgent
// first — the associative way: repeatedly min-reduce TimeTill over the
// responding (conflicting) records and step the winner out of the
// responder set. Each emitted entry costs a constant number of wide
// operations, so the whole list costs O(k) for k conflicts — the idiom
// the STARAN's flip network was built for, in contrast to the GPU's
// O(log^2 n) bitonic stages (cuda.ConflictPriority).
//
// Ties on TimeTill break toward the lower aircraft ID, matching both
// the sequential reference and the CUDA sort.
func PriorityProgram(m *Machine, w *airspace.World) []int32 {
	ac := w.Aircraft
	m.LoadDatabase(2) // col flag and TimeTill planes

	m.args = operands{ac: ac}
	m.Search(1, peCol)
	var out []int32
	for {
		_, arg := m.MinReduce(airspace.SafeTime+1, peTimeTill)
		if arg < 0 {
			break
		}
		out = append(out, ac[arg].ID)
		m.ClearResponder(arg)
	}
	return out
}
