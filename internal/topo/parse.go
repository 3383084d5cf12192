package topo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// Parse reads the textual topology format:
//
//	router A
//	host S1
//	link A B weight 2 capacity 10M delay 1ms
//	dlink A B weight 2            # directed link
//	prefix 10.66.0.0/16 name blue at C cost 0 [at R4 cost 5]
//
// '#' starts a comment; blank lines are ignored. Weight defaults to 1.
// There is at most one link per ordered pair: a link or dlink over a pair
// that already has one (either pair, for link) is an error.
func Parse(r io.Reader) (*Topology, error) {
	t := New()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := t.parseLine(fields); err != nil {
			return nil, fmt.Errorf("topo: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Topology) parseLine(f []string) error {
	switch f[0] {
	case "router":
		if len(f) != 2 {
			return fmt.Errorf("router takes exactly one name")
		}
		if _, dup := t.byName[f[1]]; dup {
			return fmt.Errorf("duplicate node %q", f[1])
		}
		t.AddNode(f[1])
		return nil
	case "host":
		if len(f) != 2 {
			return fmt.Errorf("host takes exactly one name")
		}
		if _, dup := t.byName[f[1]]; dup {
			return fmt.Errorf("duplicate node %q", f[1])
		}
		t.AddHost(f[1])
		return nil
	case "link", "dlink":
		return t.parseLink(f)
	case "prefix":
		return t.parsePrefix(f)
	default:
		return fmt.Errorf("unknown directive %q", f[0])
	}
}

func (t *Topology) parseLink(f []string) error {
	if len(f) < 3 {
		return fmt.Errorf("%s needs two endpoints", f[0])
	}
	a, ok := t.byName[f[1]]
	if !ok {
		return fmt.Errorf("unknown node %q", f[1])
	}
	b, ok := t.byName[f[2]]
	if !ok {
		return fmt.Errorf("unknown node %q", f[2])
	}
	if a == b {
		return fmt.Errorf("self-loop link on %q", f[1])
	}
	if _, dup := t.FindLink(a, b); dup {
		return fmt.Errorf("link %s->%s already exists", f[1], f[2])
	}
	if _, dup := t.FindLink(b, a); dup && f[0] == "link" {
		return fmt.Errorf("link %s->%s already exists", f[2], f[1])
	}
	weight := int64(1)
	opts := LinkOpts{}
	for i := 3; i < len(f); i += 2 {
		if i+1 >= len(f) {
			return fmt.Errorf("dangling attribute %q", f[i])
		}
		val := f[i+1]
		switch f[i] {
		case "weight":
			w, err := strconv.ParseInt(val, 10, 64)
			if err != nil || w < 1 {
				return fmt.Errorf("bad weight %q", val)
			}
			weight = w
		case "capacity":
			c, err := ParseBits(val)
			if err != nil {
				return err
			}
			opts.Capacity = c
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("bad delay %q", val)
			}
			opts.Delay = d
		default:
			return fmt.Errorf("unknown link attribute %q", f[i])
		}
	}
	if f[0] == "link" {
		t.AddLink(a, b, weight, opts)
	} else {
		t.AddDirectedLink(a, b, weight, opts)
	}
	return nil
}

func (t *Topology) parsePrefix(f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("prefix needs a CIDR")
	}
	p, err := netip.ParsePrefix(f[1])
	if err != nil {
		return fmt.Errorf("bad prefix %q: %w", f[1], err)
	}
	name := p.String()
	var at []Attachment
	i := 2
	for i < len(f) {
		switch f[i] {
		case "name":
			if i+1 >= len(f) {
				return fmt.Errorf("dangling name")
			}
			name = f[i+1]
			i += 2
		case "at":
			if i+1 >= len(f) {
				return fmt.Errorf("dangling at")
			}
			n, ok := t.byName[f[i+1]]
			if !ok {
				return fmt.Errorf("unknown node %q", f[i+1])
			}
			cost := int64(0)
			i += 2
			if i+1 < len(f)+1 && i < len(f) && f[i] == "cost" {
				if i+1 >= len(f) {
					return fmt.Errorf("dangling cost")
				}
				c, err := strconv.ParseInt(f[i+1], 10, 64)
				if err != nil || c < 0 {
					return fmt.Errorf("bad cost %q", f[i+1])
				}
				cost = c
				i += 2
			}
			at = append(at, Attachment{Node: n, Cost: cost})
		default:
			return fmt.Errorf("unknown prefix attribute %q", f[i])
		}
	}
	if len(at) == 0 {
		return fmt.Errorf("prefix %s has no attachment", p)
	}
	t.AddPrefix(p, name, at...)
	return nil
}

// ParseDemandSpec parses the "ingress:prefix:bps" shorthand used on the
// command line (e.g. "B:blue:8M") against a topology.
func ParseDemandSpec(t *Topology, spec string) (Demand, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return Demand{}, fmt.Errorf("topo: bad demand %q (want ingress:prefix:bps)", spec)
	}
	n, ok := t.NodeByName(parts[0])
	if !ok {
		return Demand{}, fmt.Errorf("topo: unknown ingress %q", parts[0])
	}
	if _, ok := t.PrefixByName(parts[1]); !ok {
		return Demand{}, fmt.Errorf("topo: unknown prefix %q", parts[1])
	}
	bps, err := ParseBits(parts[2])
	if err != nil {
		return Demand{}, err
	}
	if bps <= 0 {
		return Demand{}, fmt.Errorf("topo: demand %q has zero volume", spec)
	}
	return Demand{Ingress: n, PrefixName: parts[1], Volume: bps}, nil
}

// ParseBits parses a bandwidth with an optional K/M/G suffix (powers of ten,
// as in link data sheets): "10M" = 10e6 bit/s.
func ParseBits(s string) (float64, error) {
	mult := 1.0
	if len(s) > 0 {
		switch s[len(s)-1] {
		case 'K', 'k':
			mult, s = 1e3, s[:len(s)-1]
		case 'M', 'm':
			mult, s = 1e6, s[:len(s)-1]
		case 'G', 'g':
			mult, s = 1e9, s[:len(s)-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	// Reject non-finite values after the multiplier: a huge mantissa can
	// overflow to +Inf only once the suffix is applied.
	if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v*mult, 0) {
		return 0, fmt.Errorf("bad bandwidth %q", s)
	}
	return v * mult, nil
}
