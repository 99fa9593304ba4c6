// Command gpuinfo prints the simulated device geometry and the occupancy
// arithmetic of the paper's §2 (the motivation for Pagoda), plus the
// MasterKernel's occupancy analysis.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/gpu"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// run parses the (flagless) command line and writes the report; split from
// main so the tests can drive the command without spawning a process. -h
// prints the usage and exits 0; an undefined flag or a stray argument is a
// usage error, exit 2.
func run(out, errw io.Writer, args []string) int {
	fs := flag.NewFlagSet("gpuinfo", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: gpuinfo\n\nPrints the simulated device geometry and the paper's §2 occupancy arithmetic; it takes no flags or arguments.")
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h printed the usage
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "gpuinfo: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	render(out)
	return 0
}

// render writes the full report.
func render(w io.Writer) {
	cfg := gpu.TitanX()
	fmt.Fprintln(w, "Simulated device: NVIDIA Maxwell Titan X")
	fmt.Fprintf(w, "  SMMs:                 %d\n", cfg.NumSMMs)
	fmt.Fprintf(w, "  CUDA cores:           %d (%d per SMM)\n",
		cfg.NumSMMs*int(cfg.IssueWidth)*cfg.ThreadsPerWarp, int(cfg.IssueWidth)*cfg.ThreadsPerWarp)
	fmt.Fprintf(w, "  Warps per SMM:        %d (%d threads)\n", cfg.WarpsPerSMM, cfg.MaxResidentThreads())
	fmt.Fprintf(w, "  Shared mem per SMM:   %d KB\n", cfg.SharedPerSMM/1024)
	fmt.Fprintf(w, "  Registers per SMM:    %dK x 32-bit\n", cfg.RegsPerSMM/1024)
	fmt.Fprintf(w, "  Max TBs per SMM:      %d\n", cfg.MaxTBsPerSMM)
	fmt.Fprintf(w, "  Device warp capacity: %d\n\n", cfg.TotalWarps())

	fmt.Fprintln(w, "Narrow-task occupancy (256-thread task = 8 warps), per §2:")
	one := gpu.NarrowTaskOccupancy(cfg, 256, 1)
	hq := gpu.NarrowTaskOccupancy(cfg, 256, 32)
	fmt.Fprintf(w, "  1 task at a time:       %5.2f%%  (paper: 0.52%%)\n", one*100)
	fmt.Fprintf(w, "  32 tasks under HyperQ:  %5.2f%%  (paper: 16.67%%)\n\n", hq*100)

	fmt.Fprintln(w, "MasterKernel launch analysis (2 MTBs/SMM x 1024 threads, 32KB smem, 32 regs):")
	occ := gpu.TheoreticalOccupancy(cfg, gpu.LaunchSpec{
		BlockThreads: 1024, SharedPerTB: 32 * 1024, RegsPerThread: 32,
	})
	fmt.Fprintf(w, "  Resident TBs/SMM: %d, warps/SMM: %d, occupancy: %.0f%% (limited by %s)\n",
		occ.TBsPerSMM, occ.WarpsPerSMM, occ.Fraction*100, occ.LimitedBy)
}
