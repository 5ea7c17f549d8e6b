package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/memtest/partialfaults/internal/stress"
)

// StressCornerJSON is one corner's slice of the stress matrix.
type StressCornerJSON struct {
	Name string `json:"name"`
	// Spec is the canonical parseable rendering of the corner
	// (stress.ParseSpec round-trips it).
	Spec  string `json:"spec"`
	Model string `json:"model"`
	// Inventory is the corner's Table-1-style inventory.
	Inventory []InventoryRowJSON `json:"inventory"`
	// Coverage is the corner's march coverage matrix over the injectable
	// catalog entries.
	Coverage []CoverageRowJSON `json:"coverage"`
	// Uninjectable maps catalog entries the functional engine cannot
	// inject to the engine's reason (maps marshal with sorted keys, so
	// the rendering is deterministic).
	Uninjectable map[string]string `json:"uninjectable,omitempty"`
}

// StressMatrixJSON is the full stress matrix in JSON form: per-corner
// inventories and coverage, deltas against nominal, and the
// worst-corner certificate.
type StressMatrixJSON struct {
	Engine       string               `json:"engine"`
	MarchEngine  string               `json:"march_engine"`
	Rows         int                  `json:"rows"`
	Cols         int                  `json:"cols"`
	NominalIndex int                  `json:"nominal_index"`
	Corners      []StressCornerJSON   `json:"corners"`
	Deltas       []stress.CornerDelta `json:"deltas"`
	Certificate  stress.Certificate   `json:"certificate"`
	Claimed      int                  `json:"claimed"`
}

// ToStressJSON converts a stress matrix result to its JSON view.
func ToStressJSON(res *stress.Result) StressMatrixJSON {
	out := StressMatrixJSON{
		Engine: res.Engine, MarchEngine: res.MarchEngineName,
		Rows: res.Rows, Cols: res.Cols,
		NominalIndex: res.NominalIndex,
		Deltas:       res.Deltas,
		Certificate:  res.Certificate,
		Claimed:      res.Certificate.Claimed(),
	}
	for _, run := range res.Corners {
		out.Corners = append(out.Corners, StressCornerJSON{
			Name: run.Spec.Name, Spec: run.Spec.String(),
			Model:        string(run.Model),
			Inventory:    ToInventoryJSON(run.Rows),
			Coverage:     ToCoverageJSON(run.Coverage),
			Uninjectable: run.Uninjectable,
		})
	}
	return out
}

// WriteStressMatrix renders the stress matrix for humans: one
// Table-1-style inventory per corner, the delta report against the
// nominal corner, and the worst-corner certificate summary.
func WriteStressMatrix(w io.Writer, res *stress.Result) error {
	if _, err := fmt.Fprintf(w, "# Stress matrix — engine %s, march engine %s, coverage geometry %dx%d\n",
		res.Engine, res.MarchEngineName, res.Rows, res.Cols); err != nil {
		return err
	}
	for _, run := range res.Corners {
		if _, err := fmt.Fprintf(w, "\n## Corner %s (%s)\nmodel: %s\n\n", run.Spec.Name, run.Spec.String(), run.Model); err != nil {
			return err
		}
		if err := WriteInventory(w, run.Rows); err != nil {
			return err
		}
		if len(run.Uninjectable) > 0 {
			names := make([]string, 0, len(run.Uninjectable))
			for name := range run.Uninjectable {
				names = append(names, name)
			}
			sort.Strings(names)
			if _, err := fmt.Fprintf(w, "\nnot injectable by the functional engine (excluded from coverage):\n"); err != nil {
				return err
			}
			for _, name := range names {
				if _, err := fmt.Fprintf(w, "  %s — %s\n", name, run.Uninjectable[name]); err != nil {
					return err
				}
			}
		}
	}

	if _, err := fmt.Fprintf(w, "\n## Corner deltas vs %s\n", res.Nominal().Spec.Name); err != nil {
		return err
	}
	for _, d := range res.Deltas {
		if _, err := fmt.Fprintf(w, "\n### %s\n", d.Corner); err != nil {
			return err
		}
		if d.Unchanged() {
			if _, err := fmt.Fprintln(w, "identical to nominal"); err != nil {
				return err
			}
			continue
		}
		if len(d.Appeared) > 0 {
			if _, err := fmt.Fprintf(w, "appeared: %s\n", strings.Join(d.Appeared, "; ")); err != nil {
				return err
			}
		}
		if len(d.Disappeared) > 0 {
			if _, err := fmt.Fprintf(w, "disappeared: %s\n", strings.Join(d.Disappeared, "; ")); err != nil {
				return err
			}
		}
		for _, c := range d.Changed {
			arrow := "="
			switch {
			case c.Grew > 0:
				arrow = "grew"
			case c.Grew < 0:
				arrow = "shrank"
			default:
				arrow = "moved"
			}
			if _, err := fmt.Fprintf(w, "%s (%s)\n  nominal: %s\n  corner:  %s\n", c.Family, arrow, c.From, c.To); err != nil {
				return err
			}
		}
	}

	cert := res.Certificate
	if _, err := fmt.Fprintf(w, "\n## Worst-corner certificate — %d of %d (test, family) claims hold at every corner\n\n",
		cert.Claimed(), len(cert.Claims)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| Test | Family | Claimed | Reason |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|"); err != nil {
		return err
	}
	for _, cl := range cert.Claims {
		mark := "✓"
		if !cl.Claimed {
			mark = "✗"
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s |\n", cl.Test, cl.Family, mark, cl.Reason); err != nil {
			return err
		}
	}
	return nil
}
