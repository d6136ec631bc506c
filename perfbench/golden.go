package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
)

//go:embed goldens.json
var goldenJSON []byte

const goldenSchema = "perfbench/goldens/v1"

// goldens are the committed digests every operation is checked against,
// plus each kind's nominal cost, which sizes plans.
type goldens struct {
	Schema string `json:"schema"`
	// Records holds RunRecord digests keyed "program|toolchain|machine".
	Records map[string]goldenEntry `json:"records"`
	// LTB is the digest of CompareLTB's rows.
	LTB goldenEntry `json:"ltb"`
}

type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Insts  uint64 `json:"insts,omitempty"`
	// NominalMS is the operation's cost when the goldens were written.
	// Plans are sized from it, never from a clock, so a seed's operation
	// multiset does not depend on the host.
	NominalMS float64 `json:"nominal_ms"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decode goldens: %w", err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("goldens schema %q, want %q (regenerate with -write-goldens)", g.Schema, goldenSchema)
	}
	return &g, nil
}

// check compares a digest against the golden for key.
func check(table map[string]goldenEntry, key, got string) error {
	e, ok := table[key]
	if !ok {
		return fmt.Errorf("%s: no golden", key)
	}
	if e.SHA256 != got {
		return fmt.Errorf("%s: digest %s, golden %s", key, got[:12], e.SHA256[:min(12, len(e.SHA256))])
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func recordDigest(rec obs.RunRecord) (string, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("encode run record: %w", err)
	}
	return digest(b), nil
}

func ltbDigest(res *experiments.LTBResult) (string, error) {
	b, err := json.Marshal(res.Rows)
	if err != nil {
		return "", fmt.Errorf("encode LTB rows: %w", err)
	}
	return digest(b), nil
}

// toolchain resolves a toolchain name.
func toolchain(name string) workload.Toolchain {
	if name == "fac" {
		return workload.FACToolchain()
	}
	return workload.BaseToolchain()
}

// writeGoldens recomputes every golden by running each operation kind
// the workloads can draw, and writes them to path.
func writeGoldens(path string, log io.Writer) error {
	g := goldens{Schema: goldenSchema, Records: map[string]goldenEntry{}}
	for _, name := range simPrograms {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, tc := range toolchains {
			p, err := workload.Build(w, toolchain(tc))
			if err != nil {
				return err
			}
			for _, m := range simMachines {
				cfg, err := experiments.MachineConfig(experiments.Machine(m))
				if err != nil {
					return err
				}
				var res core.Result
				d, err := fastest(3, func() (err error) {
					res, err = core.Run(p, cfg, 0)
					return err
				})
				if err != nil {
					return err
				}
				if res.Output != w.Expected {
					return fmt.Errorf("%s/%s/%s: wrong output", name, tc, m)
				}
				sum, err := recordDigest(res.Stats.Record(w.Name, w.Class.String(), tc, m))
				if err != nil {
					return err
				}
				k := recordKey(name, tc, m)
				g.Records[k] = goldenEntry{SHA256: sum, Insts: res.Stats.Insts, NominalMS: ms(d)}
				fmt.Fprintf(log, "record %-22s %8.2f ms\n", k, ms(d))
			}
		}
	}
	var sum string
	d, err := fastest(2, func() (err error) {
		sum, err = regenOnce(experiments.NewSuite(), nil, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	g.LTB = goldenEntry{SHA256: sum, NominalMS: ms(d)}
	fmt.Fprintf(log, "ltb %8.2f ms\n", ms(d))
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
