package dram

import (
	"flag"
	"testing"

	"repro/internal/dram/policy"
)

// Build and FormatSpec are the flag-level forms these tests were written
// against: a backend, or its spec, from kind, mapping and scheduler on
// the default profile with no knobs set.
func Build(kind, mapping, sched string, fixedLatency int64) (Backend, error) {
	return (&Selection{Mapping: mapping, Sched: sched}).Build(kind, fixedLatency)
}

func FormatSpec(kind, mapping, sched string) string {
	return FormatSpecOpts(kind, mapping, sched, "", Knobs{})
}

// testConfig is a tiny single-channel part with refresh disabled so
// individual command latencies are exactly predictable. The zero-valued
// RowPolicy is the static open page.
func testConfig() Config {
	return Config{
		Channels: 1, Ranks: 1, Banks: 1,
		RowBytes: 1 << 10, RowsPerBank: 1 << 15,
		TRCD: 10, TCAS: 5, TRP: 7, TBurst: 4,
		TREFI: 0, TRFC: 0,
		Mapping: MapLine, Scheduler: FRFCFS,
	}
}

// access submits one read on its own and returns its completion cycle:
// the one-request form most timing tests are written in.
func access(b Backend, addr uint64, t0 int64) int64 {
	return b.Submit([]Request{{Addr: addr, At: t0}})[0].Done
}

func TestRowMissHitConflictTiming(t *testing.T) {
	s := NewSDRAM(testConfig())

	// Bank idle: activate (tRCD) + CAS + burst.
	if got, want := access(s, 0, 0), int64(10+5+4); got != want {
		t.Fatalf("row miss: done = %d, want %d", got, want)
	}
	// Same row open: CAS + burst only.
	if got, want := access(s, 128, 19), int64(19+5+4); got != want {
		t.Fatalf("row hit: done = %d, want %d", got, want)
	}
	// Different row: precharge + activate + CAS + burst.
	if got, want := access(s, 1024, 28), int64(28+7+10+5+4); got != want {
		t.Fatalf("row conflict: done = %d, want %d", got, want)
	}

	st := s.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 || st.RowConflicts != 1 {
		t.Fatalf("stats = miss %d hit %d conflict %d, want 1/1/1",
			st.RowMisses, st.RowHits, st.RowConflicts)
	}
	if st.Accesses != 3 || st.Bytes != 3*128 {
		t.Fatalf("accesses %d bytes %d, want 3 and 384", st.Accesses, st.Bytes)
	}
	if hr := st.RowHitRate(); hr != 1.0/3 {
		t.Fatalf("row hit rate = %f, want 1/3", hr)
	}
}

func TestClosedPagePolicy(t *testing.T) {
	cfg := testConfig()
	cfg.RowPolicy = policy.Spec{Kind: policy.Close}
	s := NewSDRAM(cfg)

	if got, want := access(s, 0, 0), int64(19); got != want {
		t.Fatalf("first access: done = %d, want %d", got, want)
	}
	// The bank auto-precharges (tRP after the burst), so the second
	// access to the same row is another activate, not a hit.
	if got, want := access(s, 128, 19), int64(19+7+10+5+4); got != want {
		t.Fatalf("second access: done = %d, want %d", got, want)
	}
	st := s.Stats()
	if st.RowHits != 0 || st.RowMisses != 2 || st.RowConflicts != 0 {
		t.Fatalf("closed page stats = hit %d miss %d conflict %d, want 0/2/0",
			st.RowHits, st.RowMisses, st.RowConflicts)
	}
}

func TestMappingDecode(t *testing.T) {
	cfg := testConfig()
	// colBits=2, rowBits=2, chanBits=1, bankBits=1
	cfg.Channels, cfg.Banks, cfg.RowBytes, cfg.RowsPerBank = 2, 2, 512, 4

	type triple struct {
		ch, bk int
		row    int64
	}
	cases := []struct {
		mapping Mapping
		addr    uint64
		want    triple
	}{
		// MapLine: consecutive lines rotate channel, then bank.
		{MapLine, 0, triple{0, 0, 0}},
		{MapLine, 128, triple{1, 0, 0}},
		{MapLine, 256, triple{0, 1, 0}},
		{MapLine, 512, triple{0, 0, 0}},  // back to ch0/bk0, col 1
		{MapLine, 2048, triple{0, 0, 1}}, // 16 lines on: next row
		// MapBank: a row's worth of lines stays put, then channel/bank
		// rotate, rows last.
		{MapBank, 0, triple{0, 0, 0}},
		{MapBank, 128, triple{0, 0, 0}},
		{MapBank, 512, triple{1, 0, 0}},
		{MapBank, 1024, triple{0, 1, 0}},
		{MapBank, 2048, triple{0, 0, 1}},
		// MapRow: rows advance first; channel and bank only change once
		// a whole bank's worth of rows is exhausted.
		{MapRow, 0, triple{0, 0, 0}},
		{MapRow, 512, triple{0, 0, 1}},
		{MapRow, 2048, triple{1, 0, 0}},      // past bank capacity: next channel
		{MapRow, 4096, triple{0, 1, 0}},      // then the next bank
		{MapRow, 1 << 20, triple{0, 0, 512}}, // past the part: rows fold, no alias
	}
	for _, c := range cases {
		cfg.Mapping = c.mapping
		s := NewSDRAM(cfg)
		ch, bk, row := s.decode(c.addr)
		if ch != c.want.ch || bk != c.want.bk || row != c.want.row {
			t.Errorf("%s decode(%d) = (%d,%d,%d), want (%d,%d,%d)",
				c.mapping, c.addr, ch, bk, row, c.want.ch, c.want.bk, c.want.row)
		}
	}
}

func TestSchedulerOverlap(t *testing.T) {
	// Two same-cycle misses to different banks: FR-FCFS overlaps the
	// second bank's activate with the first burst; FCFS serializes
	// command issue and finishes later.
	run := func(sched Scheduler) int64 {
		cfg := testConfig()
		cfg.Banks = 2
		cfg.Scheduler = sched
		s := NewSDRAM(cfg)
		access(s, 0, 0)          // bank 0
		return access(s, 128, 0) // bank 1 under MapLine
	}
	fr, fc := run(FRFCFS), run(FCFS)
	if fr >= fc {
		t.Fatalf("FR-FCFS done = %d, FCFS done = %d; want FR-FCFS sooner", fr, fc)
	}
	// The second request arrives while bank 0 is busy, so the observed
	// bank-level parallelism over the two requests is 1/2.
	cfg := testConfig()
	cfg.Banks = 2
	s := NewSDRAM(cfg)
	access(s, 0, 0)
	access(s, 128, 0)
	if blp := s.Stats().BankLevelParallelism(); blp != 0.5 {
		t.Fatalf("bank-level parallelism = %f, want 0.5", blp)
	}
	// FR-FCFS: activate overlaps, burst queues behind the bus: 19 + 4.
	if want := int64(19 + 4); fr != want {
		t.Fatalf("FR-FCFS done = %d, want %d", fr, want)
	}
	// FCFS: commands wait for the first request's CAS issue at 10.
	if want := int64(10 + 10 + 5 + 4); fc != want {
		t.Fatalf("FCFS done = %d, want %d", fc, want)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	cfg := testConfig()
	cfg.TREFI, cfg.TRFC = 100, 20
	s := NewSDRAM(cfg)

	access(s, 0, 0) // opens the row, done at 19
	// Arriving after the 100-cycle refresh boundary: the row was closed
	// and the bank stalled until 120, so this is a miss, not a hit.
	if got, want := access(s, 128, 150), int64(150+10+5+4); got != want {
		t.Fatalf("post-refresh access: done = %d, want %d", got, want)
	}
	st := s.Stats()
	if st.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", st.Refreshes)
	}
	if st.RowHits != 0 || st.RowMisses != 2 {
		t.Fatalf("stats = hit %d miss %d, want 0/2", st.RowHits, st.RowMisses)
	}
	// A request landing inside the refresh window waits it out and then
	// re-activates the (closed) row.
	s = NewSDRAM(cfg)
	access(s, 0, 0)
	if got, want := access(s, 128, 105), int64(120+10+5+4); got != want {
		t.Fatalf("in-refresh access: done = %d, want %d", got, want)
	}
}

func TestRefreshDuringBusyBank(t *testing.T) {
	// The request arrives before the refresh boundary, but the bank is
	// busy past it: the refresh still closes the row, so service is a
	// miss at the post-refresh bank-free time, not a hit at 109.
	cfg := testConfig()
	cfg.TREFI, cfg.TRFC = 100, 20
	s := NewSDRAM(cfg)
	access(s, 0, 90) // row miss, bank busy until 109
	if got, want := access(s, 128, 95), int64(129+10+5+4); got != want {
		t.Fatalf("refresh-crossing access: done = %d, want %d", got, want)
	}
	st := s.Stats()
	if st.Refreshes != 1 || st.RowHits != 0 || st.RowMisses != 2 {
		t.Fatalf("stats = refresh %d hit %d miss %d, want 1/0/2",
			st.Refreshes, st.RowHits, st.RowMisses)
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	if m, err := ParseMapping("Bank"); err != nil || m != MapBank {
		t.Errorf("ParseMapping(Bank) = %v, %v", m, err)
	}
	if sc, err := ParseScheduler("FR-FCFS"); err != nil || sc != FRFCFS {
		t.Errorf("ParseScheduler(FR-FCFS) = %v, %v", sc, err)
	}
	if b, err := Build("SDRAM", "line", "frfcfs", 100); err != nil || b == nil {
		t.Errorf("Build(SDRAM) = %v, %v", b, err)
	}
	// FormatSpec must normalize too, or an upper-case kind would drop
	// the mapping and scheduler from the spec.
	if got := FormatSpec("SDRAM", "Bank", "FCFS"); got != "sdram/bank/fcfs" {
		t.Errorf("FormatSpec(SDRAM,Bank,FCFS) = %q, want sdram/bank/fcfs", got)
	}
}

func TestQueueBackpressure(t *testing.T) {
	s := NewSDRAM(testConfig())

	// Sixteen reads of one line at cycle 0 fill the queue: a row miss
	// done at 19, then hits 9 cycles apart as the bank frees.
	for i := 0; i < 16; i++ {
		access(s, 0, 0)
	}
	st := s.Stats()
	if st.StallCycles != 0 || st.QueueMax != 16 {
		t.Fatalf("sixteen reads: stall cycles %d, queue max %d, want 0 and 16", st.StallCycles, st.QueueMax)
	}
	// The seventeenth cannot enter the controller until the first
	// completes at 19, then waits the bank out: 19+15*9+9.
	if got, want := access(s, 0, 0), int64(19+16*9); got != want {
		t.Fatalf("queued access: done = %d, want %d", got, want)
	}
	if st.StallCycles != 19 {
		t.Fatalf("stall cycles = %d, want 19", st.StallCycles)
	}
	// A saturated queue must report as full, not idle: the seventeenth
	// arrival samples sixteen.
	if st.QueueMax != 16 || st.QueueSum != 16*17/2+16 {
		t.Fatalf("queue max %d sum %d, want 16 and %d", st.QueueMax, st.QueueSum, 16*17/2+16)
	}
}

func TestStreamingRowHitRate(t *testing.T) {
	// A sequential line stream under the bank-interleaved mapping keeps
	// rows open: the hit rate must be near 1.
	cfg := DefaultConfig()
	cfg.Mapping = MapBank
	s := NewSDRAM(cfg)
	t0 := int64(0)
	for i := 0; i < 1024; i++ {
		t0 = access(s, uint64(i*lineBytes), t0)
	}
	if hr := s.Stats().RowHitRate(); hr < 0.9 {
		t.Fatalf("streaming row hit rate = %f, want >= 0.9", hr)
	}
	if bw := s.Stats().AchievedBandwidth(); bw <= 0 {
		t.Fatalf("achieved bandwidth = %f, want > 0", bw)
	}
}

func TestFixedBackend(t *testing.T) {
	f := NewFixed(100)
	if got := access(f, 0x1234, 50); got != 150 {
		t.Fatalf("fixed access: done = %d, want 150", got)
	}
	if st := f.Stats(); st.Accesses != 1 || st.Bytes != 128 {
		t.Fatalf("fixed stats = %+v", st)
	}
}

func TestBuild(t *testing.T) {
	if b, err := Build("fixed", "", "", 100); err != nil || b.Name() != "fixed" {
		t.Fatalf("Build fixed = %v, %v", b, err)
	}
	b, err := Build("sdram", "row", "fcfs", 100)
	if err != nil {
		t.Fatalf("Build sdram: %v", err)
	}
	sd, ok := b.(*SDRAM)
	if !ok || sd.Config().Mapping != MapRow || sd.Config().Scheduler != FCFS {
		t.Fatalf("Build sdram = %#v", b)
	}
	for _, bad := range [][3]string{
		{"hbm", "line", "fcfs"},
		{"sdram", "diag", "fcfs"},
		{"sdram", "line", "rr"},
		// Typos are diagnosed even when the fixed backend ignores them.
		{"fixed", "diag", "fcfs"},
		{"fixed", "line", "rr"},
	} {
		if _, err := Build(bad[0], bad[1], bad[2], 100); err == nil {
			t.Errorf("Build(%q,%q,%q) did not error", bad[0], bad[1], bad[2])
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	cases := []struct {
		kind, mapping, sched string
		spec                 string
		name                 string
	}{
		{"fixed", "line", "frfcfs", "fixed", "fixed"},
		{"sdram", "bank", "fcfs", "sdram/bank/fcfs", "sdram(bank,fcfs,open)"},
	}
	for _, c := range cases {
		spec := FormatSpec(c.kind, c.mapping, c.sched)
		if spec != c.spec {
			t.Errorf("FormatSpec(%s,%s,%s) = %q, want %q", c.kind, c.mapping, c.sched, spec, c.spec)
		}
		b, _, err := ParseSpecFull(spec, 100)
		if err != nil {
			t.Errorf("ParseSpecFull(%q): %v", spec, err)
			continue
		}
		if b.Name() != c.name {
			t.Errorf("ParseSpecFull(%q).Name() = %q, want %q", spec, b.Name(), c.name)
		}
	}
	// Bare "sdram" gets the default mapping and scheduler.
	if b, _, err := ParseSpecFull("sdram", 100); err != nil || b.Name() != "sdram(line,frfcfs,open)" {
		t.Errorf("ParseSpecFull(sdram) = %v, %v", b, err)
	}
	if _, _, err := ParseSpecFull("sdram/diag/fcfs", 100); err == nil {
		t.Error("ParseSpecFull accepted an unknown mapping")
	}
}

// TestValidateFlagCombo: an explicitly set flag the chosen kind would
// silently ignore is refused, whatever its value, and so is a count
// Selection.Spec could not print as a spec that parses: one out of its
// row's range, or -pfd without the -pf it joins.
func TestValidateFlagCombo(t *testing.T) {
	cases := []struct {
		kind string
		args []string
		ok   bool
	}{
		{"fixed", nil, true},
		{"fixed", []string{"-mshr", "8"}, true},
		{"fixed", []string{"-dmap", "line"}, false},
		{"", []string{"-qos"}, false},
		{"sdram", []string{"-dchan", "4"}, true},
		{"SDRAM", []string{"-rp", "close"}, true}, // case-insensitive like Build
		{"sdram", []string{"-mshr", "-5"}, false},
		{"sdram", []string{"-mshr", "8", "-pfd", "3"}, false},
		{"sdram", []string{"-mshr", "8", "-pf", "4", "-pfd", "3"}, true},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := RegisterFlags(fs, false)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Read(c.kind); (err == nil) != c.ok {
			t.Errorf("-dram %q %v: Read = %v, want ok=%v", c.kind, c.args, err, c.ok)
		}
	}
}

// Validate refuses each configuration no controller can be built from,
// with its own message, and accepts the test part and both presets.
func TestConfigValidateRefuses(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"three banks", func(c *Config) { c.Banks = 3 }, "dram: banks 3 not a power of two"},
		{"no channels", func(c *Config) { c.Channels = 0 }, "dram: channels 0 not a power of two"},
		{"row under a line", func(c *Config) { c.RowBytes = lineBytes / 2 }, "dram: row of 64 bytes smaller than a 128-byte line"},
		{"refresh outlasts its interval", func(c *Config) { c.TREFI, c.TRFC = 100, 100 },
			"dram: refresh duration 100 must be shorter than the refresh interval 100"},
		{"timer without an idle gap", func(c *Config) { c.RowPolicy = policy.Spec{Kind: policy.Timer} },
			"dram: timer row policy needs a positive idle gap"},
		{"negative tenants", func(c *Config) { c.Tenants = -1 }, "dram: tenant count -1 is negative"},
		{"qos for one tenant", func(c *Config) { c.QoS, c.Tenants = true, 1 }, "dram: qos scheduling needs at least two tenants"},
	} {
		cfg := testConfig()
		c.edit(&cfg)
		if err := cfg.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
	}
	for _, cfg := range []Config{testConfig(), PresetDDR.Config(), PresetHBM.Config()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v refused: %v", cfg, err)
		}
	}
}
