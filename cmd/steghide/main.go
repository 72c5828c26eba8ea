// Command steghide administers steganographic volumes and runs the
// system-model daemons (§3.2: clients ⇄ trusted agent ⇄ shared raw
// storage).
//
// Subcommands:
//
//	steghide format  -img vol.img -blocks 262144 -bs 4096
//	    Create and random-fill a volume image.
//
//	steghide storage -img vol.img -bs 4096 -addr 127.0.0.1:7070 [-log]
//	    Serve the raw storage over TCP. With -log, every observable
//	    block access is printed — the attacker's wire view.
//
//	steghide agent   -storage 127.0.0.1:7070 -addr 127.0.0.1:7071
//	                 [-dummy-interval 250ms] [-drain-timeout 10s]
//	                 [-http localhost:6060] [-log]
//	                 [-volume work=127.0.0.1:7070 -volume home=127.0.0.1:7072 ...]
//	    Run a volatile agent against remote storage, issuing dummy
//	    updates whenever idle. With -volume flags one daemon mounts
//	    and serves several volumes; clients pick one at login
//	    (protocol v2's volume field). An interrupt drains gracefully:
//	    in-flight requests finish and v2 clients are told to redial.
//	    -http serves the ops endpoint (/metrics, /healthz, /debug/vars
//	    and the net/http/pprof pages); -log prints structured
//	    connection-lifecycle events. Every exported metric and log
//	    field is leakage-audited in DESIGN.md — hidden pathnames,
//	    locator secrets and real-vs-dummy classification never appear.
//
//	steghide client  -agent 127.0.0.1:7071 -user alice -pass pw
//	                 [-volume work] [-cluster a:7071,b:7071,...]
//	                 [-timeout 5s] [-retry]
//	                 [-fallback 127.0.0.1:7072 ...] <op> ...
//	    One-shot client operations over the unified steghide.FS:
//	      mkdummy <path> <blocks>     create+disclose a dummy file
//	      create  <path>              create a hidden file
//	      put     <path>              write stdin to the file
//	      get     <path>              write the file to stdout
//	      ls                          list the session's files
//	      rm      <path>              delete a file (blocks stay as cover)
//	      probe   <path>              report existence/size (deniably)
//	    With -retry the session self-heals across connection faults
//	    and daemon restarts; -fallback adds redial addresses. With
//	    -cluster the ops run against one deniable namespace sharded
//	    over every listed daemon (keyed consistent hashing; the
//	    file→shard map derives from the login secret).
//
//	steghide client  -agent 127.0.0.1:7071 -ping
//	    Credential-free liveness probe (health checks, fleet routers).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"steghide"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "format":
		err = cmdFormat(os.Args[2:])
	case "storage":
		err = cmdStorage(os.Args[2:])
	case "agent":
		err = cmdAgent(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "steghide:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: steghide <format|storage|agent|client|fsck> [flags]
run "steghide <subcommand> -h" for flags`)
}

// cmdFsck verifies everything reachable with one credential set:
// header decode, checksummed pointer chains, every data block
// readable, no block owned twice. The stack comes up through Mount —
// the same assembly the agent daemon uses.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	img := fs.String("img", "steghide.img", "volume image path")
	bs := fs.Int("bs", 4096, "block size in bytes")
	pass := fs.String("pass", "", "passphrase whose files to verify")
	journalPass := fs.String("journal-pass", "", "administrator journal passphrase: verify the intent ring and report unreplayed intents")
	fs.Parse(args)
	paths := fs.Args()
	if *pass == "" && *journalPass == "" {
		return fmt.Errorf("fsck needs -pass (with paths) and/or -journal-pass")
	}
	if *pass != "" && len(paths) == 0 {
		return fmt.Errorf("fsck -pass needs at least one path")
	}
	dev, err := steghide.OpenFileDevice(*img, *bs)
	if err != nil {
		return err
	}
	var opts []steghide.Option
	if *journalPass != "" {
		opts = append(opts, steghide.WithJournal(*journalPass))
	}
	stack, err := steghide.Mount(dev, opts...)
	if err != nil {
		dev.Close()
		return err
	}
	defer stack.Close()
	creds := map[string][]string{}
	if *pass != "" {
		creds[*pass] = paths
	}
	report, jrep, ferr := stack.Fsck(creds)
	dirty := false
	if report != nil {
		fmt.Println(report)
		for path, cerr := range report.Corrupt {
			fmt.Printf("  corrupt: %s: %v\n", path, cerr)
		}
		for _, m := range report.Missing {
			fmt.Printf("  missing: %s (or wrong key — indistinguishable by design)\n", m)
		}
		dirty = dirty || !report.Ok()
	}
	if jrep != nil {
		fmt.Println(jrep)
		for _, rec := range jrep.Pending {
			fmt.Printf("  unreplayed intent: seq %d %s file@%d old=%d new=%d locs=%v\n",
				rec.Seq, rec.Op, rec.FileH, rec.OldLoc, rec.NewLoc, rec.Locs)
		}
		if !jrep.Ok() {
			fmt.Println("  volume is dirty: run recovery (agent Recover) before serving traffic")
		}
		dirty = dirty || !jrep.Ok()
	}
	// A journal-check failure must not swallow the path report printed
	// above — the operator still needs the corruption listing.
	if ferr != nil {
		return ferr
	}
	if dirty {
		return fmt.Errorf("volume has problems")
	}
	return nil
}

func cmdFormat(args []string) error {
	fs := flag.NewFlagSet("format", flag.ExitOnError)
	img := fs.String("img", "steghide.img", "volume image path")
	blocks := fs.Uint64("blocks", 1<<15, "number of blocks")
	bs := fs.Int("bs", 4096, "block size in bytes")
	ring := fs.Uint64("journal", 0, "reserve a sealed intent-journal ring of this many blocks (0 disables)")
	fs.Parse(args)

	dev, err := steghide.CreateFileDevice(*img, *bs, *blocks)
	if err != nil {
		return err
	}
	defer dev.Close()
	// No FillSeed: Format seeds the volume from crypto/rand.
	if _, err := steghide.Format(dev, steghide.FormatOptions{JournalBlocks: *ring}); err != nil {
		return err
	}
	if err := dev.Sync(); err != nil {
		return err
	}
	fmt.Printf("formatted %s: %d blocks x %d bytes (%.1f MiB)",
		*img, *blocks, *bs, float64(*blocks)*float64(*bs)/(1<<20))
	if *ring > 0 {
		fmt.Printf(", journal ring %d slots", *ring)
	}
	fmt.Println()
	return nil
}

func cmdStorage(args []string) error {
	fs := flag.NewFlagSet("storage", flag.ExitOnError)
	img := fs.String("img", "steghide.img", "volume image path")
	bs := fs.Int("bs", 4096, "block size in bytes")
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	logOps := fs.Bool("log", false, "print every block access (the attacker's view)")
	fs.Parse(args)

	dev, err := steghide.OpenFileDevice(*img, *bs)
	if err != nil {
		return err
	}
	defer dev.Close()

	var tap steghide.Tracer
	if *logOps {
		tap = tracerFunc(func(e steghide.Event) {
			if n := e.Span(); n > 1 {
				fmt.Printf("observed: %-5s blocks [%d,%d)\n", e.Op, e.Block, e.Block+n)
				return
			}
			fmt.Printf("observed: %-5s block %d\n", e.Op, e.Block)
		})
	}
	srv, err := steghide.NewStorageServer(*addr, dev, tap)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("storage: serving %s (%d blocks) on %s\n", *img, dev.NumBlocks(), srv.Addr())
	waitForInterrupt()
	return nil
}

type tracerFunc func(steghide.Event)

func (f tracerFunc) Record(e steghide.Event) { f(e) }

// volumeFlags collects repeated -volume name=storageAddr flags.
type volumeFlags []string

func (v *volumeFlags) String() string { return fmt.Sprint(*v) }

func (v *volumeFlags) Set(s string) error {
	*v = append(*v, s)
	return nil
}

func cmdAgent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	storageAddr := fs.String("storage", "127.0.0.1:7070", "storage server address (the default volume)")
	addr := fs.String("addr", "127.0.0.1:7071", "listen address for clients")
	dummyInterval := fs.Duration("dummy-interval", 250*time.Millisecond,
		"idle dummy-update period (0 disables)")
	journalPass := fs.String("journal-pass", "",
		"administrator journal passphrase: journal every update intent and recover the ring at boot (needs a volume formatted with -journal)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second,
		"graceful-shutdown budget on interrupt: in-flight requests finish, v2 clients are told to redial elsewhere")
	httpAddr := fs.String("http", "",
		"serve the ops endpoint on this address: /metrics, /healthz, /debug/vars, /debug/pprof (e.g. localhost:6060; empty disables)")
	logConns := fs.Bool("log", false,
		"log structured connection-lifecycle events (accept, hello, login, drain, faults) to stderr")
	loginQuota := fs.Uint64("login-quota", 0,
		"per-login block budget on every served volume (0 = unlimited); overage surfaces as a full-volume error, timed like any other rejection")
	var volumes volumeFlags
	fs.Var(&volumes, "volume",
		"serve an extra named volume, as name=storageAddr (repeatable); clients select it at login")
	fs.Parse(args)

	// The ops endpoint implies metrics; without it there is no scrape
	// surface and the registry would just burn atomics. Every mounted
	// stack shares the one registry, distinguished by volume label.
	var metrics *steghide.Metrics
	if *httpAddr != "" {
		metrics = steghide.NewMetrics()
	}

	// Shared mount options: every served volume gets its own journal and
	// dummy-traffic daemon, and Mount seeds each stack from crypto/rand.
	mountOpts := func(name string) []steghide.Option {
		opts := []steghide.Option{steghide.WithVolumeName(name)}
		if *journalPass != "" {
			opts = append(opts, steghide.WithJournal(*journalPass))
		}
		if *dummyInterval > 0 {
			opts = append(opts, steghide.WithDaemon(*dummyInterval))
		}
		if *loginQuota > 0 {
			opts = append(opts, steghide.WithLoginQuota(*loginQuota))
		}
		if metrics != nil {
			opts = append(opts, steghide.WithMetrics(metrics))
		}
		return opts
	}

	// Mount replaces the old hand-wired assembly: open each remote
	// volume, stand up its volatile agent, recover the journal ring,
	// start the adaptive dummy-traffic daemon; Close unwinds it all.
	type target struct{ name, addr string }
	targets := []target{{"", *storageAddr}}
	for _, spec := range volumes {
		name, vaddr, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return fmt.Errorf("-volume wants name=storageAddr, got %q", spec)
		}
		targets = append(targets, target{name, vaddr})
	}
	// Fail fast on aliasing: two stacks mounted over one raw device
	// would each treat the other's data blocks as free dummy cover and
	// silently corrupt it; duplicate names would shadow at login.
	seenAddr := map[string]string{}
	seenName := map[string]bool{}
	for _, tg := range targets {
		if prev, dup := seenAddr[tg.addr]; dup {
			return fmt.Errorf("volumes %q and %q share storage %s: one raw device must back exactly one volume", prev, tg.name, tg.addr)
		}
		if seenName[tg.name] {
			return fmt.Errorf("duplicate volume name %q", tg.name)
		}
		seenAddr[tg.addr] = tg.name
		seenName[tg.name] = true
	}
	var stacks []*steghide.Stack
	defer func() {
		for _, s := range stacks {
			s.Close()
		}
	}()
	for _, tg := range targets {
		dev, err := steghide.DialStorage(tg.addr)
		if err != nil {
			return err
		}
		stack, err := steghide.Mount(dev, mountOpts(tg.name)...)
		if err != nil {
			dev.Close()
			return err
		}
		stacks = append(stacks, stack)
		if rep := stack.BootRecovery(); rep != nil {
			fmt.Printf("agent: volume %q: %v\n", tg.name, rep)
		}
	}
	var logger *slog.Logger
	if *logConns {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv, err := steghide.NewServer(steghide.ServerConfig{
		Addr:         *addr,
		HTTPAddr:     *httpAddr,
		DrainTimeout: *drainTimeout,
		Metrics:      metrics,
		Logger:       logger,
	}, stacks...)
	if err != nil {
		return err
	}
	fmt.Printf("agent: %d volume(s) %v, clients=%s\n", len(stacks), srv.Volumes(), srv.Addr())
	if ops := srv.HTTPAddr(); ops != "" {
		fmt.Printf("agent: ops on http://%s (/metrics /healthz /debug/vars /debug/pprof)\n", ops)
	}

	// Surface daemon failures as they happen, not only at exit: the
	// daemon swallows ErrNoDummySpace (normal at boot) but anything
	// else means the cover traffic stopped flowing.
	stopMon := make(chan struct{})
	go func() {
		seen := make([]uint64, len(stacks))
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-ticker.C:
				for i, s := range stacks {
					d := s.Daemon()
					if d == nil {
						continue
					}
					if n, lastErr := d.Errors(); n > seen[i] {
						fmt.Fprintf(os.Stderr, "dummy daemon (volume %q): %d errors so far, last: %v\n",
							s.VolumeName(), n, lastErr)
						seen[i] = n
					}
				}
			}
		}
	}()
	waitForInterrupt()
	close(stopMon)
	// Graceful drain: stop accepting, tell v2 clients to redial
	// elsewhere (goaway), let in-flight requests finish under the
	// deadline, then close. A second interrupt — or the deadline —
	// force-closes the stragglers.
	// The drain deadline lives in the ServerConfig; this context only
	// carries the force-close signal (a second interrupt).
	dctx, cancel := context.WithCancel(context.Background())
	go func() {
		waitForInterrupt()
		cancel()
	}()
	fmt.Printf("agent: draining (up to %v; interrupt again to force)\n", *drainTimeout)
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "agent: drain cut short: %v\n", err)
	}
	cancel()
	for _, s := range stacks {
		if d := s.Daemon(); d != nil {
			if n, lastErr := d.Errors(); n > 0 {
				fmt.Fprintf(os.Stderr, "dummy daemon (volume %q): %d errors, last: %v\n",
					s.VolumeName(), n, lastErr)
			}
		}
	}
	return nil
}

func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	agentAddr := fs.String("agent", "127.0.0.1:7071", "agent server address")
	user := fs.String("user", "", "user name")
	pass := fs.String("pass", "", "passphrase")
	volume := fs.String("volume", "", "volume name on a multi-volume agent (empty = default volume)")
	cluster := fs.String("cluster", "",
		"comma-separated shard daemon addresses: one deniable namespace over the whole fleet (overrides -agent/-volume)")
	timeout := fs.Duration("timeout", 0, "per-invocation deadline (0 = none)")
	ping := fs.Bool("ping", false, "liveness probe: ping the daemon (no credentials) and exit")
	retry := fs.Bool("retry", false,
		"self-healing session: re-dial broken connections with backoff, replay the login, retry idempotent calls")
	var fallbacks volumeFlags
	fs.Var(&fallbacks, "fallback",
		"additional agent address to rotate to on failure or drain (repeatable; implies -retry)")
	fs.Parse(args)
	rest := fs.Args()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *ping {
		// Health check before (and without) any login — what a fleet
		// router or a boot script asks a daemon.
		cli, err := steghide.DialAgent(*agentAddr)
		if err != nil {
			return err
		}
		defer cli.Close()
		start := time.Now()
		if err := cli.Ping(ctx); err != nil {
			return fmt.Errorf("ping %s: %w", *agentAddr, err)
		}
		fmt.Printf("%s alive (%v)\n", *agentAddr, time.Since(start).Round(time.Microsecond))
		return nil
	}

	if *user == "" || *pass == "" || len(rest) < 1 {
		return fmt.Errorf("client needs -user, -pass and an operation (see -h)")
	}

	cfg := steghide.ClientConfig{
		Agent:      *agentAddr,
		Volume:     *volume,
		User:       *user,
		Passphrase: *pass,
		Retry:      *retry,
		Fallbacks:  fallbacks,
	}
	if *cluster != "" {
		for _, a := range strings.Split(*cluster, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Cluster = append(cfg.Cluster, a)
			}
		}
	}
	// The remote session is the same steghide.FS a local login gets —
	// a fleet included; the wire round-trips the error taxonomy.
	vault, err := cfg.Dial(ctx)
	if err != nil {
		return err
	}
	defer vault.Close()

	op := rest[0]
	if op == "ls" {
		paths, err := vault.List(ctx)
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Println(p)
		}
		return nil
	}
	if len(rest) < 2 {
		return fmt.Errorf("%s needs a path", op)
	}
	path := rest[1]
	switch op {
	case "mkdummy":
		if len(rest) < 3 {
			return fmt.Errorf("mkdummy <path> <blocks>")
		}
		blocks, err := strconv.ParseUint(rest[2], 10, 64)
		if err != nil {
			return fmt.Errorf("mkdummy: %w", err)
		}
		if err := vault.CreateDummy(ctx, path, blocks); err != nil {
			return err
		}
		fmt.Printf("dummy %s: %d blocks of deniable cover\n", path, blocks)
	case "create":
		if err := vault.Create(ctx, path); err != nil {
			return err
		}
		fmt.Printf("created hidden file %s\n", path)
	case "put":
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		if err := steghide.WriteFile(ctx, vault, path, data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d bytes to %s\n", len(data), path)
	case "get":
		data, err := steghide.ReadFile(ctx, vault, path)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	case "rm":
		if err := vault.Delete(ctx, path); err != nil {
			return err
		}
		fmt.Printf("deleted %s (its blocks remain as plausible cover)\n", path)
	case "probe":
		info, err := vault.Disclose(ctx, path)
		if err != nil {
			fmt.Printf("%s: no such file (or wrong key) — exactly what a dummy looks like\n", path)
			return nil
		}
		kind := "hidden file"
		if info.Dummy {
			kind = "dummy file"
		}
		fmt.Printf("%s: %s, %d bytes\n", path, kind, info.Size)
	default:
		return fmt.Errorf("unknown operation %q", op)
	}
	return nil
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	fmt.Println("\nshutting down")
}
