package scenarios

// The drawn population. The matrix cells were chosen where their
// invariants hold; a cell drawn from the whole space is where a defect
// shows. TestGoldenPopulation runs drawCells(populationSeed,
// populationSize) on both arms under the safety oracle, judges every draw
// by Violations and the twin rule, and holds the verdicts to
// testdata/population.txt: one line per broken invariant or unsafe check,
// then a count table that cmd/fiblab's TestPaperLedger bounds. Nothing is
// filtered out or re-seeded, so a golden diff names the draws a change
// turned green or red.

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"

	"fibbing.net/fibbing/internal/golden"
)

// The population the golden records.
const (
	populationSeed = 7
	populationSize = 400
)

// invariantKind is one invariant's count column and the pattern of the
// Violations texts it counts.
type invariantKind struct {
	col  string
	text *regexp.Regexp
}

// invariantKinds are the count table's invariant columns, in Violations'
// order. A text no pattern matches fails TestGoldenPopulation, so no
// invariant goes uncounted.
var invariantKinds = []invariantKind{
	{"unstressed", regexp.MustCompile(`^workload does not stress the IGP path: `)},
	{"off_lies", regexp.MustCompile(`^controller-off run installed \d+ lies$`)},
	{"not_beat_igp", regexp.MustCompile(`^controller does not beat IGP: `)},
	{"lp_slack", regexp.MustCompile(`^analytic utilisation \S+ exceeds LP optimum `)},
	{"never_lies", regexp.MustCompile(`^controller never installed a lie$`)},
	{"other_prefix", regexp.MustCompile(`^\d+ lies touch prefix `)},
	{"slow_reaction", regexp.MustCompile(`^reaction latency \S+ exceeds `)},
	{"late_stall", regexp.MustCompile(`^\S+s of stalls inside the settle window with the controller on$`)},
	{"protocol_errors", regexp.MustCompile(`^protocol errors \(controller=(true|false)\): `)},
	{"controller_errors", regexp.MustCompile(`^controller errors \(controller=(true|false)\): `)},
}

// populationCols are the count table's columns after the draw set and its
// size. Each is the number of draws the column holds true of, but for
// lies_at_end (the lies the controller arms end with) and
// withdraws_fired (the withdraw decisions they commit).
var populationCols = func() []string {
	cols := []string{"rejected"}
	for _, k := range invariantKinds {
		cols = append(cols, k.col)
	}
	return append(cols, "unsafe", "arms_with_lies", "lies_at_end", "withdraws_fired")
}()

// drawVerdict is what the golden keeps of one draw: its lines and its
// figure in each count column. frontier is the frontier check's tally on
// the controller arm, which the golden does not keep.
type drawVerdict struct {
	lines    []string
	counts   map[string]int
	frontier frontierTally
}

// stressed reports whether the draw built and stressed the IGP path.
func (v drawVerdict) stressed() bool { return v.counts["rejected"] == 0 && v.counts["unstressed"] == 0 }

// judgeDraw runs one draw and judges it: a rejection at build, each
// Violations text, and each check the twin rule finds unsafe is a line.
func judgeDraw(t *testing.T, spec Spec) drawVerdict {
	t.Helper()
	d, err := runDrawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	v := drawVerdict{counts: map[string]int{}}
	line := func(text string) { v.lines = append(v.lines, spec.Name+": "+text) }
	if d.rejected != nil {
		line("rejected at build: " + d.rejected.Error())
		v.counts["rejected"] = 1
		return v
	}
	for _, text := range Violations(spec, d.on, d.off) {
		line(text)
		k := slices.IndexFunc(invariantKinds, func(k invariantKind) bool { return k.text.MatchString(text) })
		if k < 0 {
			t.Errorf("no count column matches the violation %q", text)
			continue
		}
		v.counts[invariantKinds[k].col] = 1
	}
	unsafe, _ := judgeTwin(d.watch, d.twin)
	for _, c := range unsafe {
		line("unsafe " + c.String())
	}
	v.frontier = calibrateFrontier(d.watch, unsafe)
	for _, m := range v.frontier.missed {
		t.Errorf("%s: the frontier check flagged no commit before the unsafe check %s", spec.Name, m)
	}
	for _, a := range v.frontier.falseAlarms {
		t.Errorf("%s: the frontier check flagged a commit the oracle finds safe: %s", spec.Name, a)
	}
	if len(unsafe) > 0 {
		v.counts["unsafe"] = 1
	}
	if d.on.Lies > 0 {
		v.counts["arms_with_lies"] = 1
	}
	v.counts["lies_at_end"] = d.on.Lies
	for _, dec := range d.on.Decisions {
		if dec.Strategy == "withdraw" {
			v.counts["withdraws_fired"]++
		}
	}
	return v
}

// renderPopulation writes the golden: the draws' lines in draw order,
// then the count table over all draws and over the stressed ones.
func renderPopulation(verdicts []drawVerdict) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# drawCells(%d, %d), both arms under the safety oracle: one line per broken invariant or unsafe check\n",
		populationSeed, populationSize)
	for _, v := range verdicts {
		for _, l := range v.lines {
			b.WriteString(l + "\n")
		}
	}
	b.WriteString("\n== counts ==\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "draws\tn\t"+strings.Join(populationCols, "\t"))
	for _, set := range []string{"all", "stressed"} {
		n, sums := 0, make([]string, len(populationCols))
		totals := map[string]int{}
		for _, v := range verdicts {
			if set == "stressed" && !v.stressed() {
				continue
			}
			n++
			for c, x := range v.counts {
				totals[c] += x
			}
		}
		for i, c := range populationCols {
			sums[i] = fmt.Sprint(totals[c])
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", set, n, strings.Join(sums, "\t"))
	}
	tw.Flush()
	return []byte(b.String())
}

// TestGoldenPopulation holds the drawn population's verdicts to
// testdata/population.txt (-update rewrites it). A new violation or
// unsafe check on any draw fails here by its line; the count table's
// bounds live in cmd/fiblab/testdata/ledger.txt.
func TestGoldenPopulation(t *testing.T) {
	specs := drawCells(populationSeed, populationSize)
	verdicts := make([]drawVerdict, len(specs))
	t.Run("draws", func(t *testing.T) {
		for i, spec := range specs {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				verdicts[i] = judgeDraw(t, spec)
			})
		}
	})
	if t.Failed() {
		return
	}
	if slices.ContainsFunc(verdicts, func(v drawVerdict) bool { return v.counts == nil }) {
		t.Logf("a -run pattern left draws out; the golden holds all %d", len(specs))
		return
	}
	var commits, flagged, falseAlarms int
	for _, v := range verdicts {
		commits += v.frontier.commits
		flagged += v.frontier.flagged
		falseAlarms += len(v.frontier.falseAlarms)
	}
	t.Logf("frontier check: %d commits, %d flagged, %d false alarms (flagged where the oracle saw nothing unsafe)",
		commits, flagged, falseAlarms)
	golden.Check(t, "population.txt", renderPopulation(verdicts))
}
