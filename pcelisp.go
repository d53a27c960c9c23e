// Package pcelisp is a from-scratch reproduction of "Advantages of a
// PCE-based Control Plane for LISP" (Castro, German, Masip-Bruin,
// Yannuzzi, Gagliano, Grampin — CoNEXT 2008).
//
// The repository implements every system the paper's architecture touches:
//
//   - the LISP data plane of draft-farinacci-lisp-08 (internal/lisp),
//   - the mapping systems it compares against — ALT, CONS, NERD and
//     MS/MR (internal/mapsys),
//   - an iterative DNS hierarchy (internal/dnssim),
//   - an Intelligent Route Control engine (internal/irc) and TE
//     orchestration (internal/te),
//   - the paper's contribution, the PCE-based control plane
//     (internal/core),
//   - a deterministic discrete-event network simulator every byte runs
//     through (internal/simnet), with gopacket-style wire codecs
//     (internal/packet),
//   - the same xTR and PCE state machines as a real daemon over UDP
//     sockets (internal/runtime, internal/overlay, cmd/lispd),
//   - and the experiment suite quantifying the paper's three claims
//     (internal/experiments).
//
// Start with examples/quickstart for the paper's Fig. 1 walk-through,
// cmd/experiments to regenerate the evaluation (serially or fanned
// across all CPUs with -parallel), README.md for the package map, and
// EXPERIMENTS.md for the experiment index.
package pcelisp

import "github.com/pcelisp/pcelisp/internal/experiments"

// Version identifies the reproduction release.
const Version = "1.0.0"

// Paper cites the reproduced publication.
const Paper = "Castro, German, Masip-Bruin, Yannuzzi, Gagliano, Grampin: " +
	"Advantages of a PCE-based Control Plane for LISP, CoNEXT 2008"

// Experiments returns the evaluation suite (E1-E9); each entry regenerates
// one table or figure of EXPERIMENTS.md.
func Experiments() []experiments.Experiment { return experiments.All() }
