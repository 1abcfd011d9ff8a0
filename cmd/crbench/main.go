// Command crbench regenerates the paper's figures and the extension
// studies: every experiment registered in internal/bench is run and its
// table printed (plain text by default, markdown with -markdown for
// reports, or machine-readable JSON with -json for dashboards and
// regression tracking).
//
// Usage:
//
//	crbench            # run all experiments
//	crbench -id E1     # one experiment
//	crbench -markdown > experiments.md
//	crbench -json > run.json            # cr-perf-run/v1 record (shared with crload)
//	crbench -json -id P1 -out BENCH_PR6.json
//	crbench -json -id P1 -series docs/bench/data.js   # append to the trend series
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/series"
)

// jsonResult is one experiment's record inside the run's Detail payload.
type jsonResult struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Paper     string     `json:"paper,omitempty"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

func main() {
	id := flag.String("id", "", "run a single experiment (E1..E17, P1..P4)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown")
	jsonOut := flag.Bool("json", false, "emit one cr-perf-run/v1 JSON record (tables in .detail, perf scalars in .benches)")
	timeout := flag.Duration("timeout", 0, "overall deadline; pending experiments are skipped once it expires (0 = none)")
	out := flag.String("out", "", "write the rendered output to this file instead of stdout (e.g. BENCH_PR6.json)")
	seriesPath := flag.String("series", "", "with -json: also append the run to this data.js trend series")
	commit := flag.String("commit", "", "commit hash recorded in the -json run (default: git rev-parse HEAD)")
	flag.Parse()
	if *markdown && *jsonOut {
		fmt.Fprintln(os.Stderr, "crbench: -markdown and -json are mutually exclusive")
		os.Exit(2)
	}

	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "crbench: closing %s: %v\n", *out, err)
				os.Exit(1)
			}
		}()
		dst = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	experiments := bench.All()
	if *id != "" {
		e, ok := bench.Find(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "crbench: unknown experiment %q\n", *id)
			os.Exit(2)
		}
		experiments = []bench.Experiment{e}
	}

	records := []jsonResult{} // non-nil: the Detail payload is an array, never null
	var benches []series.Bench
	failed := 0
	for _, e := range experiments {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "crbench: stopping before %s: %v\n", e.ID, err)
			failed++
			break
		}
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "crbench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		switch {
		case *jsonOut:
			records = append(records, jsonResult{
				ID: tbl.ID, Title: tbl.Title, Paper: tbl.Paper,
				Columns: tbl.Columns, Rows: tbl.Rows, Notes: tbl.Notes,
				ElapsedMS: elapsed.Milliseconds(),
			})
			benches = append(benches, tbl.Metrics...)
		case *markdown:
			fmt.Fprint(dst, tbl.Markdown())
		default:
			fmt.Fprint(dst, tbl.Render())
			fmt.Fprintf(dst, "(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		}
	}
	if *jsonOut {
		if *commit == "" {
			*commit = series.GitCommit(".")
		}
		run, err := series.New("crbench", *commit, benches, records)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crbench: building run record: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(dst)
		enc.SetIndent("", "  ")
		if err := enc.Encode(run); err != nil {
			fmt.Fprintf(os.Stderr, "crbench: encoding JSON: %v\n", err)
			failed++
		}
		if *seriesPath != "" {
			if err := series.Append(*seriesPath, run); err != nil {
				fmt.Fprintf(os.Stderr, "crbench: %v\n", err)
				failed++
			} else {
				fmt.Fprintf(os.Stderr, "crbench: appended to %s\n", *seriesPath)
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
