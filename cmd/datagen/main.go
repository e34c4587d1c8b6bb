// Command datagen generates one of the synthetic workloads (Book-CS,
// Book-full, Stock-1day, Stock-2wk equivalents) and writes it as JSON, for
// use with cmd/copydetect or external tooling.
//
// Usage:
//
//	datagen -dataset book-cs [-scale 0.2] [-seed 1] [-o book-cs.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"copydetect/internal/dataset"
	"copydetect/internal/gen"
)

func main() {
	name := flag.String("dataset", "book-cs", strings.Join(gen.PresetNames, ", "))
	scale := flag.Float64("scale", 0.2, "dataset scale factor (1 = paper sizes)")
	seed := flag.Int64("seed", 1, "generation seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	cfg, err := gen.Preset(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: -dataset: %v\n", err)
		os.Exit(2)
	}
	cfg = gen.Scale(cfg, *scale)

	ds, planted, err := gen.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		w = f
	}
	if err := dataset.WriteJSON(w, ds); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: write: %v\n", err)
		os.Exit(1)
	}
	// Closed explicitly (not deferred): os.Exit skips defers, and a
	// close error on a fresh file is a write error the user must see.
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: close: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "datagen: %s — %s; %d planted copying pairs\n",
		cfg.Name, dataset.Summarize(ds), len(planted.Pairs))
}
