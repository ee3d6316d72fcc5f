// Command mwsd runs the Message Warehousing Service and provides its
// administrative operations (§I: "administrative operations to manage
// client identities").
//
// Serve:
//
//	mwsd -dir /var/lib/mws -addr :7701 -shared-key-file mws-pkg.key serve
//
// Administer (against the same -dir, while the server is stopped):
//
//	mwsd -dir /var/lib/mws register-device meter-001
//	mwsd -dir /var/lib/mws -password-file pw.txt -pubkey rc.pem register-client c-services
//	mwsd -dir /var/lib/mws grant c-services ELECTRIC-APTCOMPLEX-SV-CA
//	mwsd -dir /var/lib/mws revoke c-services ELECTRIC-APTCOMPLEX-SV-CA
//	mwsd -dir /var/lib/mws table
//
// Probe a running server (negotiates wire tracing, emits a traced ping):
//
//	mwsd -addr 127.0.0.1:7701 ping
//
// The shared-key file holds the 32-byte MWS–PKG ticket key in hex; it is
// created on first use and must be copied to the PKG (the paper assumes
// this key is established at setup).
package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/hex"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/metrics"
	"mwskit/internal/mws"
	"mwskit/internal/obsv"
	"mwskit/internal/policy"
	"mwskit/internal/policyrule"
	"mwskit/internal/storage"
	"mwskit/internal/wire"
)

func main() {
	dir := flag.String("dir", "./mws-data", "data directory")
	addr := flag.String("addr", "127.0.0.1:7701", "listen address for serve")
	keyFile := flag.String("shared-key-file", "mws-pkg.key", "hex-encoded 32-byte MWS–PKG shared key (created if absent)")
	passwordFile := flag.String("password-file", "", "file holding a client password (register-client)")
	pubKeyFile := flag.String("pubkey", "", "PEM file with the client's RSA public key (register-client)")
	window := flag.Duration("freshness", 2*time.Minute, "accepted timestamp skew")
	rulesFile := flag.String("rules-file", "", "optional XACML-style rule file applied at retrieval")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "disconnect connections idle this long (0 disables)")
	maxConns := flag.Int("max-conns", 4096, "max concurrently served connections (0 = unlimited)")
	statsEvery := flag.Duration("stats-interval", time.Minute, "per-op stats log period (0 disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /traces, /healthz, /debug/pprof on this address (empty = disabled; bind localhost — it exposes profiles and span attributes)")
	traceRing := flag.Int("trace-ring", 4096, "finished-span ring capacity for /traces and the TTrace op")
	slowReq := flag.Duration("slow-request", time.Second, "log the span tree of requests slower than this (0 disables)")
	storageBackend := flag.String("storage", "", "storage backend: "+strings.Join(storage.Backends(), ", ")+" (empty = auto: keep an existing sharded layout, else local)")
	shards := flag.Int("shards", 0, "partition count for -storage sharded (0 = default 8; fixed at directory creation)")
	groupCommit := flag.Duration("group-commit", storage.DefaultGroupCommit, "extra fsync batching delay for -storage sharded (0 = batch only appends that land while a sync is in flight)")
	compactEvery := flag.Duration("compact-every", 10*time.Minute, "background KV compaction sweep period (0 disables)")
	compactMinMuts := flag.Uint64("compact-min-mutations", 4096, "compact a KV store only after this many logged mutations (and mutations > 2x live keys)")
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwsd:", err)
		os.Exit(1)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"serve"}
	}
	// ping only needs the network; don't touch the data directory or the
	// shared-key file for it.
	if args[0] == "ping" {
		if err := ping(*addr); err != nil {
			die(logger, "ping", err)
		}
		return
	}

	sharedKey, err := loadOrCreateKey(*keyFile, logger)
	if err != nil {
		die(logger, "shared key", err)
	}
	tracer := obsv.NewTracer("mws", *traceRing, *slowReq, logger)
	svc, err := mws.New(mws.Config{
		Dir:             *dir,
		MWSPKGKey:       sharedKey,
		FreshnessWindow: *window,
		RequestTimeout:  *reqTimeout,
		Logger:          logger,
		Tracer:          tracer,
		Storage: storage.Options{
			Backend:     *storageBackend,
			Shards:      *shards,
			GroupCommit: *groupCommit,
		},
	})
	if err != nil {
		die(logger, "open service", err)
	}
	defer svc.Close()

	if *rulesFile != "" {
		text, err := os.ReadFile(*rulesFile)
		if err != nil {
			die(logger, "rules file", err)
		}
		rules, err := policyrule.Parse(string(text))
		if err != nil {
			die(logger, "rules file", err)
		}
		if err := svc.SetRules(rules); err != nil {
			die(logger, "rules file", err)
		}
		logger.Info("loaded policy rules", "count", len(rules.Rules), "file", *rulesFile)
	}

	switch args[0] {
	case "serve":
		srv, bound, err := svc.ListenAndServe(*addr,
			wire.WithIdleTimeout(*idleTimeout), wire.WithMaxConns(*maxConns))
		if err != nil {
			die(logger, "listen", err)
		}
		logger.Info("serving MWS", "addr", bound.String(), "dir", *dir,
			"request_timeout", *reqTimeout, "max_conns", *maxConns,
			"storage_shards", svc.Store().Shards())
		svc.StartAutoCompact(*compactEvery, *compactMinMuts)
		if *debugAddr != "" {
			dsrv, dbound, err := obsv.ServeDebug(*debugAddr, "mws", svc.StatsRegistry(), tracer)
			if err != nil {
				die(logger, "debug listener", err)
			}
			logger.Info("debug listener up", "addr", dbound.String(),
				"endpoints", "/metrics /healthz /traces /debug/pprof")
			defer dsrv.Close()
		}
		stopStats := logStatsPeriodically(*statsEvery, logger, srv, svc.Metrics)
		waitForSignal()
		stopStats()
		if err := srv.Close(); err != nil {
			die(logger, "shutdown", err)
		}
	case "register-device":
		if len(args) != 2 {
			die(logger, "usage", errors.New("register-device <device-id>"))
		}
		key, err := svc.RegisterDevice(args[1])
		if err != nil {
			die(logger, "register-device", err)
		}
		fmt.Printf("device %s registered; MAC key (deliver out of band):\n%s\n", args[1], hex.EncodeToString(key))
	case "register-client":
		if len(args) != 2 || *passwordFile == "" || *pubKeyFile == "" {
			die(logger, "usage", errors.New("-password-file f -pubkey f.pem register-client <id> (flags before the subcommand)"))
		}
		pw, err := os.ReadFile(*passwordFile)
		if err != nil {
			die(logger, "register-client", err)
		}
		pub, err := readRSAPublicKey(*pubKeyFile)
		if err != nil {
			die(logger, "register-client", err)
		}
		if err := svc.RegisterClient(args[1], []byte(strings.TrimSpace(string(pw))), pub); err != nil {
			die(logger, "register-client", err)
		}
		fmt.Printf("client %s registered\n", args[1])
	case "grant":
		if len(args) != 3 {
			die(logger, "usage", errors.New("grant <client-id> <attribute>"))
		}
		aid, err := svc.Grant(args[1], attr.Attribute(args[2]))
		if err != nil {
			die(logger, "grant", err)
		}
		fmt.Printf("granted; attribute ID %d\n", aid)
	case "revoke":
		if len(args) != 3 {
			die(logger, "usage", errors.New("revoke <client-id> <attribute>"))
		}
		if err := svc.Revoke(args[1], attr.Attribute(args[2])); err != nil {
			die(logger, "revoke", err)
		}
		fmt.Println("revoked")
	case "table":
		fmt.Print(policy.FormatTable(svc.PolicyTable()))
	default:
		die(logger, "command", fmt.Errorf("unknown command %q", args[0]))
	}
}

// newLogger builds the daemon-wide structured logger. Every subsystem —
// serve loop, stats ticker, slow-request dumps, fatal paths — shares it,
// so one -log-level flag governs the whole process.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// die logs a fatal error through the unified logger and exits non-zero.
func die(logger *slog.Logger, stage string, err error) {
	logger.Error("fatal", "stage", stage, "err", err)
	os.Exit(1)
}

// ping dials a running server, negotiates wire tracing, and sends one
// traced TPing. The printed trace ID can then be queried back via the
// TTrace op or the server's /traces debug endpoint — CI uses this to
// populate the trace ring before scraping it.
func ping(addr string) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	v2, err := c.EnableTrace(ctx)
	if err != nil {
		return err
	}
	tracer := obsv.NewTracer("mwsd-ping", 16, 0, nil)
	tctx, root := tracer.StartRoot(ctx, "ping")
	start := time.Now()
	resp, err := c.Do(wire.Frame{Type: wire.TPing, Trace: obsv.ContextTrace(tctx)})
	rtt := time.Since(start)
	root.End()
	if err != nil {
		return err
	}
	if resp.Type != wire.TPong {
		return fmt.Errorf("unexpected response type %d", resp.Type)
	}
	fmt.Printf("pong from %s in %v (tracing=%v trace_id=%d)\n", addr, rtt, v2, root.Context().TraceID)
	return nil
}

func loadOrCreateKey(path string, logger *slog.Logger) ([]byte, error) {
	if raw, err := os.ReadFile(path); err == nil {
		key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil || len(key) != 32 {
			return nil, fmt.Errorf("mwsd: %s: invalid key material", path)
		}
		return key, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
		return nil, err
	}
	logger.Info("created shared key file — copy it to the PKG", "file", path)
	return key, nil
}

// rsaPub aliases the RSA public key type for terse parsing code.
type rsaPub = rsa.PublicKey

func readRSAPublicKey(path string) (pub *rsaPub, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		return nil, fmt.Errorf("mwsd: %s: not PEM", path)
	}
	parsed, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, err
	}
	rp, ok := parsed.(*rsaPub)
	if !ok {
		return nil, fmt.Errorf("mwsd: %s: not an RSA key", path)
	}
	return rp, nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// logStatsPeriodically emits one per-op stats line every interval, giving
// operators the latency/error surface without scraping. The returned stop
// function halts the ticker.
func logStatsPeriodically(interval time.Duration, logger *slog.Logger, srv *wire.Server, snap func() map[string]metrics.OpSnapshot) func() {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				logger.Info("mws stats", "conns", srv.ConnCount(), "ops", metrics.FormatSnapshot(snap()))
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}
