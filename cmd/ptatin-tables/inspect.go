package main

import (
	"fmt"

	"ptatin3d/internal/chkpt"
)

// inspect decodes a checkpoint and prints its content summary; a corrupt
// or truncated file is a typed chkpt error and exit 1.
func inspect(c *ctx) error {
	if _, err := c.begin(); err != nil {
		return err
	}
	if c.fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "usage: ptatin-tables inspect FILE")
		return errUsage
	}
	path := c.fs.Arg(0)
	st, err := chkpt.Load(path)
	if err != nil {
		return err
	}
	out := c.stdout
	fmt.Fprintf(out, "checkpoint %s (format v%d)\n", path, chkpt.Version)
	fmt.Fprintf(out, "  step      %d\n", st.StepNum)
	fmt.Fprintf(out, "  time      %g\n", st.Time)
	fmt.Fprintf(out, "  grid      %dx%dx%d elements\n", st.Mx, st.My, st.Mz)
	fmt.Fprintf(out, "  coords    %d values (%d vertices)\n", len(st.Coords), len(st.Coords)/3)
	fmt.Fprintf(out, "  state     %d DOFs\n", len(st.X))
	if st.Temp != nil {
		fmt.Fprintf(out, "  temp      %d vertices\n", len(st.Temp))
	} else {
		fmt.Fprintf(out, "  temp      (absent)\n")
	}
	fmt.Fprintf(out, "  points    %d\n", st.NPoints())
	if np := st.NPoints(); np > 0 {
		var plas float64
		unloc := 0
		for i := 0; i < np; i++ {
			plas += st.Plastic[i]
			if st.Elem[i] < 0 {
				unloc++
			}
		}
		fmt.Fprintf(out, "  plastic   mean %.4g\n", plas/float64(np))
		fmt.Fprintf(out, "  unlocated %d\n", unloc)
	}
	return nil
}
