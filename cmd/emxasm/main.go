// Command emxasm assembles an EMC-Y assembly file and (optionally) runs
// it as a thread on the simulated EM-X.
//
// Usage:
//
//	emxasm prog.asm                      # assemble, print the listing
//	emxasm -run -p 4 -entry main prog.asm
//	emxasm -run -dump 100:8 prog.asm     # dump PE0 memory [100,108) after the run
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"emx/internal/core"
	"emx/internal/isa"
	"emx/internal/packet"
)

func main() {
	var (
		run   = flag.Bool("run", false, "execute the program after assembling")
		p     = flag.Int("p", 1, "number of processors")
		entry = flag.String("entry", "main", "entry label")
		arg   = flag.Int64("arg", 0, "invoke argument")
		dump  = flag.String("dump", "", "after running, dump memory as off:len (all PEs with -spmd, else PE0)")
		spmd  = flag.Bool("spmd", false, "spawn the entry thread on every PE (argument = PE number)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emxasm [flags] file.asm")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "emxasm:", err)
		os.Exit(1)
	}
	prog, err := isa.Assemble(flag.Arg(0), string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "emxasm:", err)
		os.Exit(1)
	}

	if !*run {
		fmt.Printf("; %s: %d instructions, %d labels\n", prog.Name, len(prog.Code), len(prog.Labels))
		for pc, ins := range prog.Code {
			for label, at := range prog.Labels {
				if at == pc {
					fmt.Printf("%s:\n", label)
				}
			}
			fmt.Printf("  %3d  %v\n", pc, ins)
		}
		return
	}

	cfg := core.DefaultConfig(*p)
	cfg.MemWords = 1 << 16
	cfg.MaxCycles = 1 << 34
	m, err := core.NewMachine(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emxasm:", err)
		os.Exit(1)
	}
	if *spmd {
		for pe := packet.PE(0); int(pe) < *p; pe++ {
			if err := isa.Spawn(m, pe, prog, *entry, packet.Word(uint32(pe))); err != nil {
				fmt.Fprintln(os.Stderr, "emxasm:", err)
				os.Exit(1)
			}
		}
	} else if err := isa.Spawn(m, 0, prog, *entry, packet.Word(uint32(*arg))); err != nil {
		fmt.Fprintln(os.Stderr, "emxasm:", err)
		os.Exit(1)
	}
	res, err := m.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "emxasm:", err)
		os.Exit(1)
	}
	fmt.Printf("ran %s:%s on P=%d in %d cycles (%.2f us simulated)\n",
		prog.Name, *entry, *p, res.Makespan, res.Makespan.Micros())
	b := res.TotalBreakdown()
	fmt.Printf("compute %d, overhead %d, comm %d, switch %d cycles\n",
		b.Compute, b.Overhead, b.Comm, b.Switch)

	if *dump != "" {
		parts := strings.SplitN(*dump, ":", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "emxasm: -dump wants off:len")
			os.Exit(2)
		}
		off, err1 := strconv.Atoi(parts[0])
		n, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || off < 0 || n <= 0 || n > cfg.MemWords-off {
			fmt.Fprintf(os.Stderr, "emxasm: bad -dump range (memory is %d words)\n", cfg.MemWords)
			os.Exit(2)
		}
		pes := 1
		if *spmd {
			pes = *p
		}
		for pe := packet.PE(0); int(pe) < pes; pe++ {
			for i := 0; i < n; i++ {
				w := m.Mem(pe).Peek(uint32(off + i))
				fmt.Printf("  PE%d mem[%d] = %d (0x%08x)\n", pe, off+i, uint32(w), uint32(w))
			}
		}
	}
}
