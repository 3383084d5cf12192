// Command fibbingd runs the demo as a live daemon: the emulated network
// and its Fibbing controller advance in real time (virtual clock paced to
// the wall clock), the network-wide SNMP agent listens on a real UDP port
// (snmpwalk-able with community "public"), and controller decisions are
// printed as they happen.
//
// Usage:
//
//	fibbingd [-listen 127.0.0.1:1161] [-duration 60s] [-rate 500K] [-no-controller]
//	         [-pace 1]
//
// While it runs, inspect the live counters with e.g.:
//
//	snmpwalk -v2c -c public 127.0.0.1:1161 1.3.6.1.2.1.2.2.1.16
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"fibbing.net/fibbing/internal/controller"
	"fibbing.net/fibbing/internal/flashcrowd"
	"fibbing.net/fibbing/internal/metrics"
	"fibbing.net/fibbing/internal/snmp"
	"fibbing.net/fibbing/internal/topo"
	"fibbing.net/fibbing/internal/video"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:1161", "UDP address for the SNMP agent")
	duration := flag.Duration("duration", 60*time.Second, "how long to run the demo timeline")
	rate := flag.String("rate", "500K", "per-video bitrate")
	noCtrl := flag.Bool("no-controller", false, "disable the Fibbing controller (to see the stutter)")
	pace := flag.Float64("pace", 1.0, "virtual seconds per wall second (e.g. 10 for a fast replay)")
	flag.Parse()

	if err := run(os.Stdout, *listen, *duration, *rate, !*noCtrl, *pace); err != nil {
		fmt.Fprintf(os.Stderr, "fibbingd: %v\n", err)
		os.Exit(1)
	}
}

// lockedTransport serialises SNMP agent access with the pacing loop, so
// external snmpwalks observe a consistent simulation snapshot.
type lockedTransport struct {
	mu    *sync.Mutex
	agent *snmp.Agent
}

func (l lockedTransport) handle(req []byte) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agent.HandleRequest(req)
}

// run is main without the flags and the process: it runs the demo and
// prints to w. Every line after the first (which names the bound
// address) is a function of the simulated timeline only.
func run(w io.Writer, listen string, duration time.Duration, rateSpec string, withCtrl bool, pace float64) error {
	videoRate, err := topo.ParseBits(rateSpec)
	if err != nil {
		return err
	}
	if pace <= 0 {
		return fmt.Errorf("pace must be positive")
	}
	sim, err := controller.NewSim(controller.SimOpts{WithCtrl: withCtrl, TrackPlayers: true})
	if err != nil {
		return err
	}
	if err := sim.Runner.Schedule(flashcrowd.Fig2Schedule(videoRate)); err != nil {
		return err
	}

	// Real SNMP agent over the simulated counters, guarded by the pacing
	// mutex: only one of (scheduler step, SNMP query) runs at a time.
	var mu sync.Mutex
	mib := snmp.NewMIB()
	snmp.BindIFMIB(mib, sim.Net, topo.NoNode)
	agent := snmp.NewAgent("public", mib)
	lt := lockedTransport{mu: &mu, agent: agent}

	conn, err := net.ListenPacket("udp", listen)
	if err != nil {
		return err
	}
	defer conn.Close()
	go serveLocked(conn, lt)
	fmt.Fprintf(w, "fibbingd: SNMP agent on %s (community public); controller=%v; running %v at %gx\n",
		conn.LocalAddr(), withCtrl, duration, pace)

	start := time.Now()
	decisionsSeen := 0
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for now := range ticker.C {
		virtual := time.Duration(float64(now.Sub(start)) * pace)
		if virtual > duration {
			virtual = duration
		}
		mu.Lock()
		sim.Run(virtual)
		for _, d := range sim.Ctrl.Decisions[decisionsSeen:] {
			fmt.Fprintf(w, "t=%-6v %-18s lies=%d  %s\n", d.At, d.Strategy, d.Lies, d.Detail)
			decisionsSeen++
		}
		mu.Unlock()
		if virtual >= duration {
			break
		}
	}

	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintln(w, "\nfinal link throughput (byte/s):")
	var series []*metrics.Series
	for _, pair := range [][2]string{{"A", "R1"}, {"B", "R2"}, {"B", "R3"}} {
		s, err := sim.Net.SeriesBetween(pair[0], pair[1])
		if err != nil {
			return err
		}
		series = append(series, s)
	}
	if err := metrics.SeriesTable(5*time.Second, series...).Render(w); err != nil {
		return err
	}
	agg := video.AggregateQoE(sim.QoE())
	fmt.Fprintf(w, "\nQoE: %d sessions, %d smooth, %d stalls, mean rebuffer %.1f%%\n",
		agg.Sessions, agg.SmoothSessions, agg.TotalStalls, 100*agg.MeanRebuffer)
	fmt.Fprintf(w, "live lies: %d, max utilisation: %.2f\n", sim.Lies.LieCount(), sim.Net.MaxUtilisation())
	return nil
}

func serveLocked(conn net.PacketConn, lt lockedTransport) {
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			return
		}
		if resp := lt.handle(buf[:n]); resp != nil {
			if _, err := conn.WriteTo(resp, addr); err != nil {
				return
			}
		}
	}
}
