// Command tigad is the persistent test daemon: it loads models once,
// serves the line-JSON control API (synthesize / run / campaign / stats)
// and hosts many concurrent online test sessions. Strategy synthesis runs
// behind a content-addressed singleflight cache, so N clients requesting
// the same goal cost one game solve; campaign requests route their
// per-goal solves through the same cache on the model's shared batch, so
// concurrent campaigns pay each goal once and explore the un-instrumented
// core once (the stats endpoint reports skeleton_core_hits/_misses next to
// the cache counters); the session semaphore answers overload with an
// explicit busy event; SIGTERM/SIGINT drain gracefully (in-flight requests
// finish, then every session closes) and the final service stats are
// printed as JSON.
//
// Usage:
//
//	tigad                                   # smartlight + traingate on 127.0.0.1:7699
//	tigad -listen 127.0.0.1:0               # ephemeral port (printed on stdout)
//	tigad -models smartlight -lep-n 3       # add the LEP instance as model "lep"
//	tigad -file extra.tga -max-sessions 256
//	tigad -metrics-addr 127.0.0.1:9699      # Prometheus /metrics + pprof on /debug/pprof/
//	tigad -log-level info                   # structured access log (one line per request)
//	tigad -obs=false                        # E9 ablation: no histograms, tracing or access log
//
// Fleet mode: N daemons with the same model set become one logical
// strategy cache. Every member lists the full fleet (itself included)
// via -peers (static) or -peers-file (watched roster file); the owner of
// each strategy key — consistent hashing over the alive members — solves
// it, everyone else forwards the miss and caches the compiled answer:
//
//	tigad -listen 10.0.0.1:7699 -peers 10.0.0.1:7699,10.0.0.2:7699,10.0.0.3:7699
//	tigad -listen 10.0.0.2:7699 -peers-file fleet.json   # {"members":[{"addr":...}]}
//
// Talk to it with cmd/tigaload (load generation), or by hand:
//
//	printf '%s\n' '{"op":"synthesize","model":"smartlight","purpose":"control: A<> IUT.Bright"}' | nc 127.0.0.1 7699
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // mounted on the -metrics-addr mux, not a public default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tigatest/internal/cluster"
	"tigatest/internal/dsl"
	"tigatest/internal/game"
	"tigatest/internal/models"
	"tigatest/internal/service"
)

func main() {
	var files multiFlag
	var (
		listen      = flag.String("listen", "127.0.0.1:7699", "control-API listen address")
		modelList   = flag.String("models", "smartlight,traingate", "comma-separated built-in models to load (smartlight, traingate, lep — lep needs -lep-n)")
		lepN        = flag.Int("lep-n", 0, "LEP instance size; > 0 also loads model \"lep\"")
		maxSessions = flag.Int("max-sessions", 64, "concurrent session bound; extra connections get an explicit busy response")
		solvWorkers = flag.Int("solver-workers", 0, "strategy-synthesis exploration workers (0 = all cores)")
		reqTimeout  = flag.Duration("request-timeout", 0, "default per-request deadline (0 = none); requests override with deadline_ms")
		quiet       = flag.Bool("quiet", false, "suppress operational logging")

		peers         = flag.String("peers", "", "fleet mode: comma-separated member addresses host:port[@weight], this daemon included")
		peersFile     = flag.String("peers-file", "", "fleet mode: JSON roster file {\"members\":[{\"addr\":\"host:port\",\"weight\":n}]}, polled for join/leave")
		advertise     = flag.String("advertise", "", "address this daemon is known by in the fleet (default: -listen; required with -listen :0)")
		peerTimeout   = flag.Duration("peer-timeout", 2*time.Second, "bound on one peer forward or health probe")
		probeInterval = flag.Duration("probe-interval", time.Second, "peer health-probe interval")
		metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus metrics on http://ADDR/metrics plus net/http/pprof on /debug/pprof/ (empty = off)")

		obsOn    = flag.Bool("obs", true, "observability layer: latency histograms, request tracing, access log (-obs=false is the E9 ablation)")
		logLevel = flag.String("log-level", "warn", "structured-log threshold: debug (per-span records), info (per-request access log), warn, error")
		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of logfmt-style text")
	)
	flag.Var(&files, "file", "additional model file in the tigatest DSL (repeatable)")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tigad: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	// Structured logging rides the observability layer. The default
	// threshold (warn) keeps the daemon's output byte-identical to the
	// pre-observability builds: the per-request access log is Info, the
	// per-span records are Debug.
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("-log-level: %v", err))
	}
	var handler slog.Handler
	hopts := &slog.HandlerOptions{Level: level}
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	} else {
		handler = slog.NewTextHandler(os.Stderr, hopts)
	}

	svc := service.New(service.Options{
		MaxSessions:    *maxSessions,
		Solver:         game.Options{Workers: *solvWorkers},
		RequestTimeout: *reqTimeout,
		Logf:           logf,
		DisableObs:     !*obsOn,
		Slog:           slog.New(handler),
	})

	for _, name := range strings.Split(*modelList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sys, env, plant, _, err := models.ByName(name, *lepN)
		must(err)
		must(svc.AddModel(sys, env, plant))
	}
	if *lepN > 0 && !strings.Contains(*modelList, "lep") {
		sys, env, plant, _, err := models.ByName("lep", *lepN)
		must(err)
		must(svc.AddModel(sys, env, plant))
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		must(err)
		f, err := dsl.Parse(string(data))
		must(err)
		must(svc.AddModel(f.Sys, f.ParseEnv(), nil))
	}

	if *peers != "" && *peersFile != "" {
		fatal(fmt.Errorf("-peers and -peers-file are mutually exclusive"))
	}

	must(svc.Listen(*listen))
	// The chosen address goes to stdout so scripts using -listen :0 can
	// pick it up.
	fmt.Printf("tigad: listening on %s\n", svc.Addr())

	var tracker *cluster.Tracker
	if *peers != "" || *peersFile != "" {
		self := *advertise
		if self == "" {
			self = *listen
		}
		if host, port, err := net.SplitHostPort(self); err != nil || port == "0" || port == "" || host == "" {
			fatal(fmt.Errorf("fleet mode needs a concrete advertise address (got %q); set -advertise with -listen :0", self))
		}
		var store cluster.Store
		if *peers != "" {
			ms, err := cluster.ParsePeers(*peers)
			must(err)
			store = cluster.StaticStore(ms)
		} else {
			store = cluster.FileStore{Path: *peersFile}
		}
		tr, err := cluster.NewTracker(cluster.Member{Addr: self}, store, cluster.TrackerOptions{
			ProbeInterval: *probeInterval,
		})
		must(err)
		must(svc.EnableCluster(service.ClusterOptions{
			Tracker:        tr,
			ForwardTimeout: *peerTimeout,
		}))
		tr.Start()
		tracker = tr
		fmt.Fprintf(os.Stderr, "tigad: fleet member %s (%d configured)\n", self, len(tr.Configured()))
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		must(err)
		mux := http.NewServeMux()
		// The service handler renders counters plus (observability on) the
		// latency histogram families, with the exposition Content-Type.
		mux.Handle("/metrics", svc.MetricsHandler())
		// net/http/pprof registers on http.DefaultServeMux; re-exporting the
		// prefix here keeps profiling off the control port and on the
		// operator-facing metrics listener.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		go func() { _ = http.Serve(mln, mux) }()
		fmt.Printf("tigad: metrics on http://%s/metrics\n", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	fmt.Fprintln(os.Stderr, "tigad: draining")
	// Drain flips the draining flag first, so peer forwards are refused
	// (typed "draining" — the forwarder solves locally) from the first
	// instant of shutdown, before in-flight local sessions finish; the
	// tracker stops probing only after the last session is gone.
	svc.Drain()
	if tracker != nil {
		tracker.Close()
	}

	out, err := json.MarshalIndent(svc.StatsSnapshot(), "", "  ")
	must(err)
	fmt.Println(string(out))
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tigad:", err)
	os.Exit(1)
}
