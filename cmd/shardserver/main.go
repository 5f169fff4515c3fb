// Command shardserver runs one shard of a distributed evaluation
// cluster: it owns an evaluation engine (one match index) over its
// slice of the training data and serves the remote match/lifecycle
// protocol over TCP. A training client (any binary built on the
// forecast facade with -remote, or remote.Dial directly) scatters its
// dataset across a set of shardservers and evolves against them
// exactly as it would against the in-process engine — bit-identical
// results, just with match capacity spread over machines.
//
// Start empty (the client's Load ships the slice):
//
//	shardserver -listen :7070
//	shardserver -listen :7071
//	tsforecast train -remote host0:7070,host1:7071 ...
//
// Or preloaded from a CSV slice, for clients that attach with Sync:
//
//	shardserver -listen :7070 -csv slice0.csv -d 6 -horizon 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/forecast"
	"repro/internal/engine"
	"repro/internal/remote"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("shardserver: ")

	fs := flag.NewFlagSet("shardserver", flag.ExitOnError)
	listen := fs.String("listen", ":7070", "address to serve the shard protocol on")
	csv := fs.String("csv", "", "optional CSV slice to preload (clients then attach with Sync instead of Load)")
	d := fs.Int("d", 0, "window width for -csv")
	horizon := fs.Int("horizon", 1, "prediction horizon for -csv")
	ofl := forecast.RegisterObsFlags(fs) // -debug-addr, -trace
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: shardserver [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	var srv *remote.Server
	if *csv != "" {
		if *d <= 0 {
			log.Fatal("-csv needs -d (window width)")
		}
		ds, err := forecast.LoadCSV(*csv, *d, *horizon)
		if err != nil {
			log.Fatal(err)
		}
		srv = remote.NewServerData(ds)
		log.Printf("preloaded %d patterns from %s (D=%d, horizon=%d)", ds.Len(), *csv, *d, *horizon)
	} else {
		srv = remote.NewServer(engine.Options{})
	}

	// Telemetry: per-verb RPC latency/byte histograms plus the engine's
	// batch and mutation metrics, served live when -debug-addr is set;
	// with -trace, each traced client request also opens a handler span
	// into this server's trace file, stitchable under the client's tree
	// by tools/traceview.
	reg, stopObs, err := ofl.Start(log.Writer())
	if err != nil {
		log.Fatal(err)
	}
	defer stopObs()
	if reg != nil {
		srv.Instrument(reg)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", l.Addr())

	// SIGINT/SIGTERM close the listener; in-flight connections drop
	// and clients fail over loudly (their sticky transport error) —
	// a shardserver holds training state only, nothing durable.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("%v: shutting down", s)
		l.Close()
	}()

	if err := srv.Serve(context.Background(), l); err != nil {
		// The accept error after Close is the normal shutdown path.
		log.Printf("stopped: %v", err)
	}
}
