package stokes

import (
	"reflect"

	"ptatin3d/internal/la"
)

// RankStorage is one rank's Krylov storage after a distributed solve: the
// length of its coupled windows (a packed vector's length), the full
// coupled length, and the length of every vector it keeps for its solves —
// the right-hand side and solution of its rank view and every vector its
// krylov.Workspace holds.
type RankStorage struct {
	Windows, Full int
	Vecs          []int
}

// RankKrylovStorage reads the Krylov storage of the rank views s keeps for
// its cached world shape. krylov.Workspace exports no accessor, so its
// vectors are read by reflection: every field holding la.Vec values,
// whatever it is called.
func RankKrylovStorage(s *Solver) []RankStorage {
	vecType := reflect.TypeOf(la.Vec(nil))
	var out []RankStorage
	for _, v := range s.dcache.ranks {
		st := RankStorage{Windows: la.SpansLen(v.rd.spans), Full: s.Op.N(), Vecs: []int{len(v.b), len(v.d)}}
		w := reflect.ValueOf(&v.work).Elem()
		for i := 0; i < w.NumField(); i++ {
			f := w.Field(i)
			if k := f.Kind(); (k != reflect.Slice && k != reflect.Array) || f.Type().Elem() != vecType {
				continue
			}
			for j := 0; j < f.Len(); j++ {
				if e := f.Index(j); !e.IsNil() {
					st.Vecs = append(st.Vecs, e.Len())
				}
			}
		}
		out = append(out, st)
	}
	return out
}
