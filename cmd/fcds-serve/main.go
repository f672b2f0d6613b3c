// Command fcds-serve runs an fcds network ingest node: it listens for
// the keyed-batch wire protocol (see the fcds package documentation's
// "Network ingestion and snapshot shipping" section), terminates
// batches into in-memory keyed sketch tables, and answers per-key
// queries, rollups, snapshot pulls and snapshot pushes.
//
// With -push, the node also acts as an aggregation edge: on every
// -push-every tick it captures each table's merged cumulative snapshot
// and ships it to the upstream node(s) tagged with this node's source
// id, so an upstream replaces the previous ship instead of re-merging
// it (re-merging would double-count quantiles samples every tick) —
// chain two fcds-serve processes and you have the paper's distributed-
// aggregation fabric on real sockets.
//
// Shipping is fault tolerant: -push takes a comma-separated upstream
// list, each upstream gets its own reconnecting client (exponential
// backoff + jitter, bounded latest-per-table outbox), and a dead
// upstream never stalls a healthy one. With -checkpoint-dir the node
// also checkpoints every table's aggregated state to disk on a timer
// (atomic, fsync'd, CRC-checked, generational files; -checkpoint-retain
// bounds how many generations stay on disk) and recovers it on boot
// before the port opens, so an aggregator restart loses at most one
// checkpoint interval of direct ingest — pushed per-source snapshots
// heal entirely when their pushers reconnect. With -journal the node
// additionally write-ahead-logs every snapshot push, window ship and
// eviction spill between checkpoints and replays that tail on boot,
// shrinking the recovery gap to at most -journal-fsync-every minus one
// acknowledged records. See the fcds package documentation's "Failure
// semantics" section.
//
// Usage:
//
//	fcds-serve [-addr :9700] [-tables events=theta/str,lat=quantiles/str]
//	           [-writers N] [-param K] [-max-keys N] [-ttl D]
//	           [-push a:9700,b:9700 -push-every 5s -push-source id]
//	           [-checkpoint-dir DIR -checkpoint-every 30s -checkpoint-retain N]
//	           [-journal DIR -journal-fsync-every N -journal-max-bytes N]
//	           [-idle-timeout 5m] [-dial-timeout 10s]
//	           [-read-burst N] [-write-burst N]
//	           [-metrics-addr :9701] [-stats-every D] [-v]
//
// Table specs are name=family/keytype with family one of theta,
// quantiles, hll and keytype one of str, u64. SIGINT/SIGTERM shut the
// node down gracefully: in-flight frames drain, one final push runs
// and drains per upstream (when configured), a final checkpoint is
// written (when configured), and the tables close.
//
// Datapath tuning: ingest frames check writer handles out of a
// per-table pool, so any number of connections share -writers handles
// — raise -writers when fcds_server_writer_pool_waits_total climbs.
// -read-burst and -write-burst size the per-connection socket buffers
// (defaults 128KiB/64KiB).
//
// Observability: every subsystem (pool, tables, server, checkpoints,
// per-upstream shippers) registers into one metrics registry.
// -metrics-addr starts an ops HTTP listener serving /metrics
// (Prometheus text format) and /healthz (the HEALTH counters as JSON
// with an explicit has_checkpoint field); -stats-every logs the same
// registry as periodic dumps, so scrapes and logs share one
// formatting path. See the fcds package documentation's
// "Observability and operating fcds-serve" section for the metrics
// worth alerting on.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	fcds "github.com/fcds/fcds"
)

// usageExit reports a flag value the node cannot run with, prints the
// usage and exits 2, as the flag package does for a flag it cannot
// parse.
func usageExit(reason string) {
	fmt.Fprintf(os.Stderr, "fcds-serve: %s\n", reason)
	flag.Usage()
	os.Exit(2)
}

// paramError says why a table of the family cannot take -param p ("" if
// it can): 0 is the family default, any other value must suit the
// family's sketch constructor and fit a table snapshot.
func paramError(family string, p int) string {
	pow2 := p&(p-1) == 0 // the lower bounds below rule out p <= 0
	switch {
	case p == 0:
	case family == "theta" && (!pow2 || p < 16 || p > 1<<26):
		return "theta K must be a power of two in [16, 2^26]"
	case family == "quantiles" && (!pow2 || p < 2 || p > 1<<15):
		return "quantiles K must be a power of two in [2, 2^15]"
	case family == "hll" && (p < 4 || p > 18):
		return "hll precision must be in [4, 18]"
	}
	return ""
}

type tableSpec struct {
	name, family, keyType string
}

func parseSpecs(s string) ([]tableSpec, error) {
	var specs []tableSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("table spec %q: want name=family/keytype", part)
		}
		family, keyType, ok := strings.Cut(rest, "/")
		if !ok {
			keyType = "str"
		}
		switch family {
		case "theta", "quantiles", "hll":
		default:
			return nil, fmt.Errorf("table spec %q: unknown family %q", part, family)
		}
		switch keyType {
		case "str", "u64":
		default:
			return nil, fmt.Errorf("table spec %q: unknown key type %q", part, keyType)
		}
		specs = append(specs, tableSpec{name: name, family: family, keyType: keyType})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no tables configured")
	}
	return specs, nil
}

// node is one running table: its registration plus the hooks the push
// loop, metrics registration and shutdown need.
type node struct {
	spec            tableSpec
	snapshot        func() ([]byte, error)
	keys            func() int
	registerMetrics func(*fcds.MetricsRegistry)
	close           func()
}

func main() {
	addr := flag.String("addr", ":9700", "listen address")
	tables := flag.String("tables", "events=theta/str", "comma-separated table specs: name=family/keytype (family: theta|quantiles|hll, keytype: str|u64)")
	writers := flag.Int("writers", 4, "writer handles per table (N of the per-key relaxation bound)")
	param := flag.Int("param", 0, "per-key sketch parameter: K for theta/quantiles, precision for hll (0 = family default)")
	maxKeys := flag.Int("max-keys", 0, "live-key cap per table (0 = unlimited; LRU eviction past it)")
	ttl := flag.Duration("ttl", 0, "evict keys idle longer than this (0 = never)")
	push := flag.String("push", "", "comma-separated upstream fcds-serve addresses to ship snapshots to (each gets an independent reconnect loop)")
	pushEvery := flag.Duration("push-every", 10*time.Second, "snapshot shipping interval (with -push)")
	pushSource := flag.String("push-source", "", "source id for pushed snapshots (default host/pid); upstreams replace this source's previous snapshot on every push")
	ckptDir := flag.String("checkpoint-dir", "", "directory for durable table checkpoints (restored on boot before the port opens; empty = no checkpointing)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "checkpoint interval (with -checkpoint-dir)")
	ckptRetain := flag.Int("checkpoint-retain", 2, "checkpoint generations kept per table (and journal files kept past a checkpoint); older ones are pruned after each successful pass")
	journalDir := flag.String("journal", "", "directory for the append-only durability journal: pushes and eviction spills are logged before they are applied and replayed on boot, shrinking crash loss from one checkpoint interval to at most -journal-fsync-every records (empty = disabled)")
	journalFsyncEvery := flag.Int("journal-fsync-every", 1, "fsync the journal after every Nth record; 1 = every record (strongest durability), higher amortizes the fsync at the cost of losing up to N-1 acknowledged records in a crash")
	journalMaxBytes := flag.Int64("journal-max-bytes", 64<<20, "journal size that triggers self-compaction (latest record per pushing source is kept, eviction spills are carried verbatim)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "close connections idle longer than this (0 = never)")
	readBurst := flag.Int("read-burst", 0, "per-connection read buffer in bytes: pipelined frames decode out of one burst (0 = default 128KiB)")
	writeBurst := flag.Int("write-burst", 0, "per-connection response buffer in bytes (0 = default 64KiB)")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "bound on upstream connect + HELLO (0 = none)")
	metricsAddr := flag.String("metrics-addr", "", "ops HTTP listen address serving /metrics (Prometheus text) and /healthz (JSON); empty = disabled")
	statsEvery := flag.Duration("stats-every", 0, "log a metrics-registry dump at this interval (0 = never)")
	verbose := flag.Bool("v", false, "log connection-level diagnostics")
	flag.Parse()
	// Refuse flags that would crash a started node, before anything
	// starts: no port is open yet and no table exists.
	if *writers < 1 {
		usageExit(fmt.Sprintf("-writers %d: need at least one writer handle per table", *writers))
	}
	if *push != "" && *pushEvery <= 0 {
		usageExit(fmt.Sprintf("-push-every %v: the shipping interval must be positive", *pushEvery))
	}

	lg := log.New(os.Stderr, "fcds-serve: ", log.LstdFlags)
	specs, err := parseSpecs(*tables)
	if err != nil {
		lg.Fatal(err)
	}
	for _, spec := range specs {
		if reason := paramError(spec.family, *param); reason != "" {
			usageExit(fmt.Sprintf("-param %d: %s (table %s)", *param, reason, spec.name))
		}
	}

	cfg := fcds.IngestServerConfig{
		IdleTimeout:      *idleTimeout,
		ReadBurst:        *readBurst,
		WriteBurst:       *writeBurst,
		CheckpointRetain: *ckptRetain,
	}
	if *verbose {
		cfg.Logf = lg.Printf
	}
	// Register every table before the port opens: a client that
	// connects the moment the listener is up (a supervisor-restarted
	// pipeline) must never see unknown-table errors.
	srv := fcds.NewIngestServer(cfg)
	pool := fcds.NewPropagatorPool(0) // one executor for every table
	defer pool.Close()
	// One registry for every subsystem: the /metrics endpoint, the
	// -stats-every log dump and /healthz all read the same series.
	reg := fcds.NewMetricsRegistry()
	fcds.RegisterPoolMetrics(reg, pool)
	srv.RegisterMetrics(reg)
	nodes := make([]*node, 0, len(specs))
	for _, spec := range specs {
		n, err := register(srv, spec, *writers, *param, *maxKeys, *ttl, pool, *journalDir != "", lg)
		if err != nil {
			lg.Fatal(err)
		}
		n.registerMetrics(reg)
		nodes = append(nodes, n)
		lg.Printf("serving table %s (%s, %s keys)", spec.name, spec.family, spec.keyType)
	}
	// Recover the previous run's checkpoints before the port opens, so
	// the first query after a restart already answers over everything
	// the crashed process had checkpointed.
	if *ckptDir != "" {
		st, err := srv.RestoreCheckpoints(*ckptDir)
		if err != nil {
			lg.Fatalf("checkpoint restore: %v", err)
		}
		if st.Tables > 0 || st.Skipped > 0 {
			lg.Printf("restored %d table checkpoint(s) (%d bytes, %d skipped, %d fallbacks) from %s",
				st.Tables, st.Bytes, st.Skipped, st.Fallbacks, *ckptDir)
		}
	}
	// Then replay the journal tail on top of the restored state (records
	// the checkpoints already cover are LSN-skipped), open a fresh
	// journal file, and arm write-ahead journaling — all before the port
	// opens, so the first frame after a restart is journaled and the
	// first query answers over everything the crashed process ACKed.
	var jnl *fcds.IngestJournal
	if *journalDir != "" {
		rst, err := srv.ReplayJournal(*journalDir)
		if err != nil {
			lg.Fatalf("journal replay: %v", err)
		}
		if rst.Files+rst.SkippedFiles > 0 {
			lg.Printf("journal replay: %d records applied (%d already checkpointed, %d files skipped as checkpointed, %d stale, %d unknown-table, %d errors, %d torn bytes) from %s",
				rst.Records, rst.Skipped, rst.SkippedFiles, rst.Stale, rst.UnknownTable, rst.Errors, rst.TornBytes, *journalDir)
		}
		jnl, err = fcds.OpenIngestJournal(*journalDir, fcds.IngestJournalConfig{
			FsyncEvery: *journalFsyncEvery,
			MaxBytes:   *journalMaxBytes,
			Retain:     *ckptRetain,
			Logf:       lg.Printf,
		})
		if err != nil {
			lg.Fatalf("journal open: %v", err)
		}
		srv.AttachJournal(jnl)
		lg.Printf("journaling to %s (fsync every %d record(s))", *journalDir, *journalFsyncEvery)
	}
	if err := srv.Start(*addr); err != nil {
		lg.Fatal(err)
	}
	lg.Printf("listening on %s", srv.Addr())

	// Snapshot shipping: every push carries the full cumulative
	// snapshot tagged with a stable source id, so upstreams replace
	// this node's previous ship instead of merging it — re-merging each
	// tick would re-count every previously shipped sample in
	// non-idempotent families (quantiles). The id must survive
	// reconnects and stay unique among pushers (including this node's
	// own previous incarnation, whose retained snapshots a restart must
	// not clobber with an initially empty table); host/pid does both.
	if *pushSource == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "fcds"
		}
		*pushSource = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	// One reconnecting client per upstream: outage handling (backoff,
	// outbox coalescing, redelivery) is per upstream by construction, so
	// replicating to a dead aggregator never stalls a live one.
	type upstream struct {
		addr string
		rel  *fcds.ReliableIngestClient
	}
	var upstreams []upstream
	if *push != "" {
		for i, addr := range strings.Split(*push, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			seed := uint64(crc32.ChecksumIEEE([]byte(*pushSource))) + uint64(i)<<32
			rel, err := fcds.DialReliable(addr, fcds.ReliableIngestConfig{
				Seed: seed,
				OnState: func(addr string) func(s fcds.IngestConnState, err error) {
					return func(s fcds.IngestConnState, err error) {
						if err != nil {
							lg.Printf("push %s: %s (%v)", addr, s, err)
						} else if *verbose {
							lg.Printf("push %s: %s", addr, s)
						}
					}
				}(addr),
			}, *dialTimeout)
			if err != nil {
				lg.Fatalf("push %s: %v", addr, err)
			}
			rel.RegisterMetrics(reg, addr)
			upstreams = append(upstreams, upstream{addr: addr, rel: rel})
		}
	}

	// Ops endpoint: /metrics in Prometheus text format, /healthz as the
	// HEALTH counters in JSON. Separate listener from the ingest port —
	// scrapers speak HTTP, ingest clients speak the binary protocol.
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", fcds.MetricsHandler(reg))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			st := srv.Stats()
			age, hasCkpt := srv.CheckpointAge()
			replayed, replayAge, _ := srv.JournalReplay()
			body := map[string]any{
				"tables":               st.Tables,
				"keys":                 st.Keys,
				"conns":                st.Conns,
				"conns_total":          st.ConnsTotal,
				"frames":               st.Frames,
				"items":                st.Items,
				"snapshots":            st.Snapshots,
				"errors":               st.Errors,
				"has_checkpoint":       hasCkpt,
				"checkpoint_age_sec":   age.Seconds(),
				"has_journal":          srv.Journal() != nil,
				"journal_replayed":     replayed,
				"journal_replay_age_s": replayAge.Seconds(),
			}
			if j := srv.Journal(); j != nil {
				js := j.Stats()
				body["journal_size_bytes"] = js.TotalBytes
				body["journal_records"] = js.Records
				body["journal_unsynced"] = js.Unsynced
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(body)
		})
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				lg.Printf("metrics: %v", err)
			}
		}()
		lg.Printf("metrics on http://%s/metrics", *metricsAddr)
	}
	pushDone := make(chan struct{})
	pushStop := make(chan struct{})
	if len(upstreams) > 0 {
		go func() {
			defer close(pushDone)
			ticker := time.NewTicker(*pushEvery)
			defer ticker.Stop()
			ship := func() {
				for _, n := range nodes {
					// One capture per table per tick, fanned out to every
					// upstream (Reliable retains the blob without
					// modifying it, so sharing is safe).
					blob, err := n.snapshot()
					if err != nil {
						lg.Printf("push: snapshot %s: %v", n.spec.name, err)
						continue
					}
					for _, up := range upstreams {
						if err := up.rel.ShipSnapshot(n.spec.name, *pushSource, blob); err != nil {
							lg.Printf("push %s: ship %s: %v", up.addr, n.spec.name, err)
						}
					}
				}
			}
			for {
				select {
				case <-ticker.C:
					ship()
				case <-pushStop:
					ship() // final capture so shutdown loses nothing
					return
				}
			}
		}()
	} else {
		close(pushDone)
	}

	if *ckptEvery <= 0 {
		*ckptEvery = 30 * time.Second
	}
	ckptDone := make(chan struct{})
	ckptStop := make(chan struct{})
	if *ckptDir != "" {
		go func() {
			defer close(ckptDone)
			ticker := time.NewTicker(*ckptEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if _, err := srv.WriteCheckpoints(*ckptDir); err != nil {
						lg.Printf("checkpoint: %v", err)
					}
				case <-ckptStop:
					return
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	if *statsEvery > 0 {
		// The dump renders the same registry /metrics scrapes — server,
		// pool, table, checkpoint and per-upstream series included — so
		// the log path and the scrape path can never disagree.
		go func() {
			var buf bytes.Buffer
			for range time.Tick(*statsEvery) {
				buf.Reset()
				if err := reg.WriteValues(&buf); err != nil {
					lg.Printf("stats: %v", err)
					continue
				}
				lg.Printf("stats:\n%s", bytes.TrimRight(buf.Bytes(), "\n"))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	lg.Printf("%s: draining", got)
	srv.Close() // stop accepting, drain in-flight frames
	if len(upstreams) > 0 {
		close(pushStop)
	}
	<-pushDone
	for _, up := range upstreams {
		// Deliver what is still queued (reconnecting if an upstream just
		// restarted), bounded so a dead upstream cannot wedge shutdown.
		if err := up.rel.Drain(15 * time.Second); err != nil {
			lg.Printf("push %s: %v", up.addr, err)
		}
		up.rel.Close()
	}
	if *ckptDir != "" {
		close(ckptStop)
		<-ckptDone
		// Final checkpoint after the drain: everything in-flight frames
		// ingested during shutdown makes it to disk (and the journal
		// rotates + prunes, so a clean shutdown leaves a near-empty tail
		// for the next boot to replay).
		if _, err := srv.WriteCheckpoints(*ckptDir); err != nil {
			lg.Printf("checkpoint: %v", err)
		}
	}
	for _, n := range nodes {
		n.close()
	}
	if jnl != nil {
		// Closed after the tables: their final evictions may still spill
		// records, and every acknowledged record must hit disk.
		if err := jnl.Close(); err != nil {
			lg.Printf("journal close: %v", err)
		}
	}
	st := srv.Stats()
	lg.Printf("done: served %d conns, %d frames, %d items", st.ConnsTotal, st.Frames, st.Items)
}

// register builds the table a spec describes, registers it, and
// returns its lifecycle hooks. With journaling on, evicted keys spill
// their final compact back into the server's remote aggregate (made
// durable through the journal first), so a TTL or max-keys eviction
// stops meaning silent deletion from rollups — without the journal the
// historical drop-on-evict behavior is preserved.
func register(srv *fcds.IngestServer, spec tableSpec, writers, param, maxKeys int, ttl time.Duration, pool *fcds.PropagatorPool, journaled bool, lg *log.Logger) (*node, error) {
	strCfg := fcds.TableConfig{Writers: writers, MaxKeys: maxKeys, TTL: ttl, Pool: pool}
	u64Cfg := fcds.TableU64Config{Writers: writers, MaxKeys: maxKeys, TTL: ttl, Pool: pool}
	if journaled {
		strCfg.OnEvict = func(key string, snapshot []byte) {
			if err := srv.SpillEvictString(spec.name, key, snapshot); err != nil {
				lg.Printf("evict spill %s: %v", spec.name, err)
			}
		}
		u64Cfg.OnEvict = func(key uint64, snapshot []byte) {
			if err := srv.SpillEvictU64(spec.name, key, snapshot); err != nil {
				lg.Printf("evict spill %s: %v", spec.name, err)
			}
		}
	}
	n := &node{spec: spec}
	var err error
	switch spec.family + "/" + spec.keyType {
	case "theta/str":
		t := fcds.NewThetaTable(fcds.ThetaTableConfig{Table: strCfg, K: param})
		n.keys, n.close = t.Keys, t.Close
		n.registerMetrics = func(reg *fcds.MetricsRegistry) { t.RegisterMetrics(reg, spec.name) }
		err = fcds.RegisterThetaTable(srv, spec.name, t)
	case "theta/u64":
		t := fcds.NewThetaTableU64(fcds.ThetaTableU64Config{Table: u64Cfg, K: param})
		n.keys, n.close = t.Keys, t.Close
		n.registerMetrics = func(reg *fcds.MetricsRegistry) { t.RegisterMetrics(reg, spec.name) }
		err = fcds.RegisterThetaTableU64(srv, spec.name, t)
	case "quantiles/str":
		t := fcds.NewQuantilesTable(fcds.QuantilesTableConfig{Table: strCfg, K: param})
		n.keys, n.close = t.Keys, t.Close
		n.registerMetrics = func(reg *fcds.MetricsRegistry) { t.RegisterMetrics(reg, spec.name) }
		err = fcds.RegisterQuantilesTable(srv, spec.name, t)
	case "quantiles/u64":
		t := fcds.NewQuantilesTableU64(fcds.QuantilesTableU64Config{Table: u64Cfg, K: param})
		n.keys, n.close = t.Keys, t.Close
		n.registerMetrics = func(reg *fcds.MetricsRegistry) { t.RegisterMetrics(reg, spec.name) }
		err = fcds.RegisterQuantilesTableU64(srv, spec.name, t)
	case "hll/str":
		t := fcds.NewHLLTable(fcds.HLLTableConfig{Table: strCfg, Precision: uint8(param)})
		n.keys, n.close = t.Keys, t.Close
		n.registerMetrics = func(reg *fcds.MetricsRegistry) { t.RegisterMetrics(reg, spec.name) }
		err = fcds.RegisterHLLTable(srv, spec.name, t)
	case "hll/u64":
		t := fcds.NewHLLTableU64(fcds.HLLTableU64Config{Table: u64Cfg, Precision: uint8(param)})
		n.keys, n.close = t.Keys, t.Close
		n.registerMetrics = func(reg *fcds.MetricsRegistry) { t.RegisterMetrics(reg, spec.name) }
		err = fcds.RegisterHLLTableU64(srv, spec.name, t)
	}
	if err != nil {
		return nil, err
	}
	// Ship through the server's own snapshot path: it quiesces the
	// server's writer slots, drains the table (a plain SnapshotBinary
	// would miss up to r acked-but-buffered updates per key) and folds
	// in any snapshots this node has itself received — so a mid-tier
	// node forwards downstream data instead of dropping it.
	n.snapshot = func() ([]byte, error) { return srv.SnapshotTable(spec.name) }
	return n, nil
}
