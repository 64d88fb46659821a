// Command p2mdie learns a theory from one of the bundled datasets, either
// sequentially (the paper's Fig. 1 baseline), with the pipelined
// data-parallel p²-mdie algorithm on the simulated cluster, or — deployed
// as separate processes — over real TCP (the paper's Beowulf setting).
//
// Single-process examples:
//
//	p2mdie -dataset trains
//	p2mdie -dataset carcinogenesis -workers 8 -width 10
//	p2mdie -dataset pyrimidines -scale 0.25 -workers 4 -width 10 -v
//
// Multi-process deployment (every process must load the same dataset, i.e.
// be started with the same -dataset/-scale/-seed or -file flags; the join
// handshake rejects mismatches):
//
//	p2mdie -dataset pyrimidines -serve 127.0.0.1:7771            # worker 1
//	p2mdie -dataset pyrimidines -serve 127.0.0.1:7772            # worker 2
//	p2mdie -dataset pyrimidines -master \
//	       -workers 127.0.0.1:7771,127.0.0.1:7772 -width 10 -v   # master
//
// The master ships each worker its example partition and the search
// settings over the wire (kindLoad), so only the master's -width and
// -strategy matter; -seed is part of the dataset identity
// (it shapes the generated examples, and so the fingerprint) and must
// match on every process, with the master's copy also driving the
// partitioning. With the same dataset and seed, the TCP run learns a
// theory byte-identical to the simulated run's.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/faultline"
	"repro/internal/netcluster"
	"repro/internal/search"
	srv "repro/internal/serve"
	"repro/internal/shape"

	ilp "repro"
)

func main() {
	var (
		dataset  = flag.String("dataset", "trains", "dataset: trains, carcinogenesis, mesh, pyrimidines")
		file     = flag.String("file", "", "load the dataset from a text file (ilpgen format) instead")
		scale    = flag.Float64("scale", 1.0, "scale factor for dataset example counts (paper sizes at 1.0)")
		seed     = flag.Int64("seed", 1, "generator / partition seed")
		workers  = flag.String("workers", "0", "p²-mdie workers: a count on the simulated cluster (0 = sequential baseline), or with -master a comma-separated worker address list")
		width    = flag.Int("width", 10, "pipeline width W (0 = unlimited, the paper's 'nolimit')")
		strategy = flag.String("strategy", "bfs", "search strategy: bfs (paper) or bestfirst")
		serve    = flag.String("serve", "", "run as a TCP worker: listen on this address, join the master, receive a partition (use host:0 for an ephemeral port; the listen address and a final status line always print so orchestrators can scrape them)")
		masterMd = flag.Bool("master", false, "run as the TCP master over the workers listed in -workers")
		listen   = flag.String("listen", "", "with -master: also accept mid-run worker joins on this address (the actual address prints so orchestrators can scrape it); joiners attach with -join")
		joinAddr = flag.String("join", "", "attach to a RUNNING master's -listen address as a late worker: join the cluster mid-run, get welcomed into the ring and receive a share at the next rebalance (combine with -serve to pin this worker's own listen address, default 127.0.0.1:0)")
		balance  = flag.Bool("balance", false, "throughput-aware load rebalancing: between epochs the master redeals uncovered positives proportionally to each worker's measured throughput and per-example cost instead of keeping the static random partition (master flag; workers inherit it at load)")
		traffic  = flag.String("traffic", "", "after a parallel run, dump the per-link byte/message table: 'json' or 'text' (both transports use the same accounting)")
		recov    = flag.Bool("recover", false, "tolerate worker failures: exclude a dead worker, redistribute its partition over the survivors and re-issue the in-flight epoch instead of aborting (master flag; workers inherit it at load)")
		ckptDir  = flag.String("checkpoint", "", "master durability: write an atomic epoch-boundary snapshot of the master's state under this directory (keeping the last two); a crashed master restarts with -resume and learns a theory byte-identical to a failure-free run")
		resume   = flag.Bool("resume", false, "restart a crashed TCP master from its latest -checkpoint snapshot: re-bind the checkpointed listen address, wait for the workers to reconnect, roll the cluster back to the boundary and continue the run (requires -checkpoint; the dataset flags must match the crashed run's)")
		orphanTO = flag.Duration("orphantimeout", 0, "worker orphan regime on master death: instead of failing, workers hold their state and redial the master's address with exponential backoff for up to this long, resuming when a -resume'd master re-admits them (master flag; workers inherit it at load; 0 = master death kills workers)")
		crashAt  = flag.Int64("crashat", 0, "fault injection: kill this master process (exit 137, no cleanup — as if kill -9) when its N'th protocol op is reached; deterministic under a fixed dataset and seed (testing aid for -checkpoint/-resume)")
		flapAt   = flag.Int64("flapat", 0, "fault injection: drop all of this master's TCP links (a transient partition) when its N'th protocol op is reached; with -linkgrace the session layer replays the gap and the run completes with zero recoveries (testing aid for the link-resilience layer)")
		linkGr   = flag.Duration("linkgrace", 0, "TCP link-reconnect grace window (netcluster LinkGrace): a failed link gets this long to redial and replay before it escalates to a peer-down event; 0 = fail immediately (the pre-grace behaviour)")
		pubDir   = flag.String("publish", "", "learn-then-serve pipeline: write an immutable serving snapshot (theory + background + examples, internal/serve format) under this directory at every epoch boundary and after the final epoch, for ilpserve -watch to hot-swap in; with the sequential baseline the final theory publishes once (master flag; a -serve/-join worker refuses it)")
		recvTO   = flag.Duration("recvtimeout", 0, "bound every blocking protocol receive (core.Config.RecvTimeout); 0 = no deadline, rely on the transport's failure detection")
		hbEvery  = flag.Duration("heartbeat", 0, "TCP per-link heartbeat period (netcluster HeartbeatEvery); 0 = default 500ms")
		joinTO   = flag.Duration("jointimeout", 0, "TCP join timeout: a worker's wait for the master's welcome and the master's dial retries (netcluster JoinTimeout); 0 = default 60s")
		shapeFl  = flag.String("shape", "", "throttle every TCP link in userspace (tc/netem-style, no root needed): comma-separated lat=<duration>,bw=<rate>, e.g. lat=5ms,bw=100mbit; pass the same value to every process for symmetric links. The master's shape also becomes the cluster's virtual-clock cost model, so sim-clock predictions can be checked against measured wall time")
		verbose  = flag.Bool("v", false, "print the learned theory")
		quiet    = flag.Bool("q", false, "suppress everything except the metrics line")
	)
	flag.Parse()
	if err := checkModeFlags(); err != nil {
		fail(err)
	}
	if *width < 0 {
		fail(fmt.Errorf("-width %d: want a width ≥ 0 (0 = unlimited)", *width))
	}
	shp, err := shape.Parse(*shapeFl)
	if err != nil {
		fail(err)
	}

	var ds *ilp.Dataset
	if *file != "" {
		var src []byte
		if src, err = os.ReadFile(*file); err == nil {
			ds, err = ilp.LoadDataset(*file, string(src))
		}
	} else {
		ds, err = datasets.ByNameScaled(*dataset, *scale, *seed)
	}
	if err != nil {
		fail(err)
	}
	if st, serr := search.ParseStrategy(*strategy); serr != nil {
		fail(serr)
	} else {
		ds.Search.Strategy = st
	}
	if *traffic != "" && *traffic != "json" && *traffic != "text" {
		fail(fmt.Errorf("unknown -traffic mode %q (want json or text)", *traffic))
	}

	opts := runOptions{
		fingerprint:   core.Fingerprint(ds.KB, ds.Pos, ds.Neg),
		shape:         shp,
		recover:       *recov,
		recvTimeout:   *recvTO,
		heartbeat:     *hbEvery,
		joinTimeout:   *joinTO,
		balance:       *balance,
		listen:        *listen,
		checkpointDir: *ckptDir,
		orphanTimeout: *orphanTO,
		crashAt:       *crashAt,
		flapAt:        *flapAt,
		linkGrace:     *linkGr,
		publishDir:    *pubDir,
	}

	if *resume {
		if *ckptDir == "" {
			fail(fmt.Errorf("-resume needs -checkpoint DIR (the crashed master's snapshot directory)"))
		}
		runResume(ds, *traffic, opts, *verbose, *quiet)
		return
	}
	if *joinAddr != "" || *serve != "" {
		runWorker(ds, *joinAddr, *serve, opts, *quiet)
		return
	}
	if *masterMd {
		runTCPMaster(ds, *workers, *width, *seed, *traffic, opts, *verbose, *quiet)
		return
	}

	workerCount, err := parseWorkers(*workers)
	if err != nil {
		fail(err)
	}
	if !*quiet {
		fmt.Println(ds.String())
	}

	var theory []ilp.Clause
	if workerCount <= 0 {
		res, err := ilp.LearnSequential(ds)
		if err != nil {
			fail(err)
		}
		theory = res.Theory
		fmt.Printf("sequential: %d rules (%d adopted facts), %d searches, %d generated rules, %d inferences, %.2fs wall\n",
			res.RulesLearned, res.GroundFactsAdopted, res.Searches, res.GeneratedRules,
			res.Inferences, res.Duration.Seconds())
		// The sequential baseline has no epoch boundaries: publish the final
		// theory once so -publish works in every learning mode.
		if hook := publishHook(ds, opts.publishDir); hook != nil {
			if err := hook(1, theory); err != nil {
				fail(err)
			}
		}
	} else {
		met, err := ilp.LearnParallel(ds, workerCount, *width, ilp.ParallelOptions{
			Seed:          *seed,
			Cost:          shapeCostModel(shp),
			Recover:       opts.recover,
			RecvTimeout:   opts.recvTimeout,
			Balance:       opts.balance,
			CheckpointDir: opts.checkpointDir,
			PublishDir:    opts.publishDir,
		})
		if err != nil {
			fail(err)
		}
		theory = met.Theory
		printParallelMetrics("sim", met, *width)
		dumpTraffic(*traffic, "sim", met.Traffic)
	}
	fmt.Printf("training accuracy: %.2f%%\n", 100*ilp.Accuracy(ds, theory, ds.Pos, ds.Neg))
	if *verbose {
		fmt.Println("theory:")
		fmt.Print(ilp.TheoryString(theory))
	}
}

// flagReaders names, for every flag that not every mode reads, the modes
// that read it; a flag absent here (the dataset flags, -q) is read by all.
// It follows where main and the run* functions read each flag or the
// runOptions field it fills: -strategy goes into ds.Search, which
// a worker or a resumed master gets from the master or the checkpoint
// instead, and -shape's cost model, the timeouts and the link settings only
// mean something to the TCP modes and, for the cost model and the receive
// timeout, to the simulated cluster.
var flagReaders = map[string][]string{
	"workers":       {"sequential", "sim", "-master"},
	"width":         {"sim", "-master"},
	"strategy":      {"sequential", "sim", "-master"},
	"serve":         {"-serve/-join"},
	"join":          {"-serve/-join"},
	"master":        {"-master"},
	"resume":        {"-resume"},
	"listen":        {"-master"},
	"orphantimeout": {"-master"},
	"balance":       {"sim", "-master"},
	"recover":       {"sim", "-master"},
	"traffic":       {"sim", "-master", "-resume"},
	"checkpoint":    {"sim", "-master", "-resume"},
	"crashat":       {"-master", "-resume"},
	"flapat":        {"-master", "-resume"},
	"heartbeat":     {"-serve/-join", "-master", "-resume"},
	"jointimeout":   {"-serve/-join", "-master", "-resume"},
	"linkgrace":     {"-serve/-join", "-master", "-resume"},
	"recvtimeout":   {"sim", "-serve/-join", "-master", "-resume"},
	"shape":         {"sim", "-serve/-join", "-master", "-resume"},
	"publish":       {"sequential", "sim", "-master", "-resume"},
	"v":             {"sequential", "sim", "-master", "-resume"},
}

// checkModeFlags refuses a flag set on the command line that the selected
// mode never reads, naming both: such a flag would be silently inert — a
// -crashat that never crashes, a -linkgrace on a run without links.
func checkModeFlags() error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode := "sequential"
	switch {
	case set["resume"]:
		mode = "-resume"
	case set["serve"] || set["join"]:
		mode = "-serve/-join"
	case set["master"]:
		mode = "-master"
	default:
		n, err := parseWorkers(flag.Lookup("workers").Value.String())
		if err != nil {
			return err
		}
		if n > 0 {
			mode = "sim"
		}
	}
	var unread []string
	flag.Visit(func(f *flag.Flag) {
		if modes, ok := flagReaders[f.Name]; ok && !slices.Contains(modes, mode) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("%s: not read in %s mode", strings.Join(unread, ", "), mode)
	}
	return nil
}

// parseWorkers reads -workers outside -master mode, where it is a count.
func parseWorkers(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("-workers %q: need a worker count (or add -master for an address list)", s)
	}
	return n, nil
}

// runOptions carries the fault-tolerance and timeout flags shared by the
// deployment modes (README "Timeouts and fault tolerance" documents the
// defaults), and the loaded dataset's fingerprint for the join handshake.
type runOptions struct {
	fingerprint   uint64
	shape         shape.Config
	recover       bool
	recvTimeout   time.Duration
	heartbeat     time.Duration
	joinTimeout   time.Duration
	balance       bool
	listen        string
	checkpointDir string
	orphanTimeout time.Duration
	crashAt       int64
	flapAt        int64
	linkGrace     time.Duration
	publishDir    string
}

// applyTransport builds the netcluster config every TCP mode shares: the
// dataset fingerprint, heartbeat, join timeout and link grace, plus link
// shaping. With -shape set, every conn (dialed or accepted) is
// wrapped in the userspace throttle, and on the master the cost model's
// transfer terms are aligned to the shaped link — workers adopt the
// master's model at join — so the virtual clock predicts exactly what the
// throttle enforces. A term -shape leaves out is modelled as free (1 ns
// latency, ~unbounded bandwidth), matching the unthrottled loopback
// underneath, rather than falling back to the Beowulf defaults.
func applyTransport(opts runOptions) netcluster.Config {
	ncfg := netcluster.Config{
		Fingerprint:    opts.fingerprint,
		HeartbeatEvery: opts.heartbeat,
		JoinTimeout:    opts.joinTimeout,
		LinkGrace:      opts.linkGrace,
	}
	if opts.shape.Enabled() {
		ncfg.ShapeConn = opts.shape.Wrap
		ncfg.Model = shapeCostModel(opts.shape)
	}
	return ncfg
}

// shapeCostModel translates a link shape into the cluster cost model with
// the same transfer terms. Zero when unshaped, so callers fall back to
// their usual default (the paper's Beowulf model).
func shapeCostModel(c shape.Config) cluster.CostModel {
	if !c.Enabled() {
		return cluster.CostModel{}
	}
	m := cluster.CostModel{Latency: c.Latency, BandwidthBps: c.BandwidthBps}
	if m.Latency <= 0 {
		m.Latency = time.Nanosecond
	}
	if m.BandwidthBps <= 0 {
		m.BandwidthBps = 1e18
	}
	return m
}

// publishHook builds the core.Config.Publish hook for -publish, or nil when
// the flag is unset. The snapshot carries the full task, so a fresh ilpserve
// process can serve it with no other inputs.
func publishHook(ds *ilp.Dataset, dir string) func(int, []ilp.Clause) error {
	if dir == "" {
		return nil
	}
	fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
	return srv.Publisher(dir, ds.Name, fp, ds.KB, ds.Budget, ds.Pos, ds.Neg)
}

// crashExitCode is the -crashat exit status: 128+9, what a kill -9 would
// report, so orchestrators treat the injected crash as a hard kill.
const crashExitCode = 137

// masterTransport wraps the master's node in the faultline schedule when
// -crashat or -flapat is set; otherwise it is the node itself. A scheduled
// flap drops the node's real TCP links (OnFlap → DropLinks) so the blip is
// healed by the session layer's replay, not by faultline's own buffering.
func masterTransport(node *netcluster.Node, opts runOptions) cluster.Transport {
	if opts.crashAt <= 0 && opts.flapAt <= 0 {
		return node
	}
	plan := faultline.Plan{CrashAtOp: opts.crashAt}
	if opts.flapAt > 0 {
		plan.FlapAtOp = opts.flapAt
		plan.OnFlap = func() { node.DropLinks() }
	}
	return faultline.Wrap(node, plan)
}

// dieIfCrashed turns the faultline's scheduled crash into a process death:
// exit immediately, no link teardown, no checkpoint flush — the peers see
// exactly what a kill -9 leaves behind.
func dieIfCrashed(err error) {
	if errors.Is(err, faultline.ErrCrashed) {
		fmt.Fprintf(os.Stderr, "p2mdie: crashed by -crashat schedule\n")
		os.Exit(crashExitCode)
	}
}

// runWorker is the TCP worker mode. With -serve alone it listens on
// listenAddr and waits for the master to dial in; with -join it attaches
// to a running master's -listen address as a late worker (serving on
// listenAddr, default an ephemeral loopback port). Either way it then
// serves the run, reports and exits: the partition or share, the ring and
// every semantics-bearing regime (recovery, balance) arrive from the
// master over the protocol; the worker-side flags only shape this node's
// transport and timeouts.
func runWorker(ds *ilp.Dataset, masterAddr, listenAddr string, opts runOptions, quiet bool) {
	var node *netcluster.Node
	var err error
	if masterAddr != "" {
		if listenAddr == "" {
			listenAddr = "127.0.0.1:0"
		}
		if node, err = netcluster.Join(masterAddr, listenAddr, applyTransport(opts)); err != nil {
			fail(err)
		}
		fmt.Printf("p2mdie: joined running cluster as node %d of %d (serving on %s)\n", node.ID(), node.Size(), node.Addr())
	} else {
		ln, lerr := net.Listen("tcp", listenAddr)
		if lerr != nil {
			fail(lerr)
		}
		fmt.Printf("p2mdie: worker listening on %s\n", ln.Addr())
		if node, err = netcluster.ServeOn(ln, applyTransport(opts)); err != nil {
			fail(err)
		}
		if !quiet {
			fmt.Printf("p2mdie: joined as node %d of %d\n", node.ID(), node.Size())
		}
	}
	err = core.RunWorker(node, ds.KB, ds.Modes, core.Config{RecvTimeout: opts.recvTimeout})
	if err != nil {
		// Slam the links shut so peers see a failure, not an orderly exit.
		node.Abort()
		fail(err)
	}
	node.Close()
	fmt.Printf("p2mdie: worker %d done, %.2fs simulated\n", node.ID(), node.Clock().Seconds())
}

// runTCPMaster drives a multi-process run over the given worker addresses.
func runTCPMaster(ds *ilp.Dataset, addrList string, width int, seed int64, trafficMode string, opts runOptions, verbose, quiet bool) {
	if _, err := strconv.Atoi(addrList); err == nil {
		fail(fmt.Errorf("-master needs -workers host:port,... (got the count %q)", addrList))
	}
	addrs := strings.Split(addrList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			fail(fmt.Errorf("-master needs -workers host:port,... with no empty entries (got %q)", addrList))
		}
	}
	if !quiet {
		fmt.Println(ds.String())
	}
	ncfg := applyTransport(opts)
	var node *netcluster.Node
	var err error
	if opts.listen != "" {
		// Pre-bind the join listener so its address rides the welcome into
		// every worker's address book (and any -checkpoint snapshot): that
		// entry is where orphaned workers redial a -resume'd master.
		ln, lerr := net.Listen("tcp", opts.listen)
		if lerr != nil {
			fail(lerr)
		}
		node, err = netcluster.ConnectOn(ln, addrs, ncfg)
		if err != nil {
			fail(err)
		}
		// Always printed (even with -q) so orchestrators can scrape the
		// actual address when -listen used an ephemeral port.
		fmt.Printf("p2mdie: master accepting joins on %s\n", node.Addr())
	} else {
		if node, err = netcluster.Connect(addrs, ncfg); err != nil {
			fail(err)
		}
	}
	met, err := core.RunMaster(masterTransport(node, opts), ds.Pos, ds.Neg, core.Config{
		Workers:       len(addrs),
		Width:         width,
		Seed:          seed,
		Search:        ds.Search,
		Bottom:        ds.Bottom,
		Budget:        ds.Budget,
		Recover:       opts.recover,
		RecvTimeout:   opts.recvTimeout,
		Balance:       opts.balance,
		CheckpointDir: opts.checkpointDir,
		OrphanTimeout: opts.orphanTimeout,
		Fingerprint:   opts.fingerprint,
		Publish:       publishHook(ds, opts.publishDir),
	})
	if err != nil {
		dieIfCrashed(err)
		node.Abort()
		fail(err)
	}
	node.Close()
	printParallelMetrics("tcp", met, width)
	dumpTraffic(trafficMode, "tcp", met.Traffic)
	fmt.Printf("training accuracy: %.2f%%\n", 100*ilp.Accuracy(ds, met.Theory, ds.Pos, ds.Neg))
	if verbose {
		fmt.Println("theory:")
		fmt.Print(ilp.TheoryString(met.Theory))
	}
}

// runResume restarts a crashed TCP master from its latest checkpoint: the
// dataset is re-loaded first (rebuilding the interned symbol table the
// snapshot's terms reference), the snapshot's own address book supplies the
// listen address to re-bind and the workers to wait for, and the resume
// handshake rolls the cluster back to the boundary before continuing.
func runResume(ds *ilp.Dataset, trafficMode string, opts runOptions, verbose, quiet bool) {
	fp := opts.fingerprint
	ck, err := core.LoadCheckpoint(opts.checkpointDir)
	if err != nil {
		fail(err)
	}
	if ck.Fingerprint() != fp {
		fail(fmt.Errorf("checkpoint fingerprint %x does not match the loaded dataset %x — start p2mdie -resume with the crashed run's exact dataset flags", ck.Fingerprint(), fp))
	}
	peers := ck.Peers()
	if len(peers) == 0 || peers[0] == "" {
		fail(fmt.Errorf("checkpoint carries no master listen address (the crashed master ran without -listen); cannot resume over TCP"))
	}
	if !quiet {
		fmt.Println(ds.String())
	}
	node, err := netcluster.Resume(peers[0], ck.Size(), peers, applyTransport(opts))
	if err != nil {
		fail(err)
	}
	// Always printed so orchestrators can scrape where the master came back.
	fmt.Printf("p2mdie: master resumed at epoch %d (%d epochs done), accepting rejoins on %s\n", ck.Epoch(), ck.Epochs(), node.Addr())
	met, err := core.ResumeMaster(masterTransport(node, opts), ck, core.Config{
		RecvTimeout:   opts.recvTimeout,
		CheckpointDir: opts.checkpointDir, // stay durable across further crashes
		Fingerprint:   fp,
		Publish:       publishHook(ds, opts.publishDir),
	})
	if err != nil {
		dieIfCrashed(err)
		node.Abort()
		fail(err)
	}
	node.Close()
	printParallelMetrics("tcp", met, met.Width)
	dumpTraffic(trafficMode, "tcp", met.Traffic)
	fmt.Printf("training accuracy: %.2f%%\n", 100*ilp.Accuracy(ds, met.Theory, ds.Pos, ds.Neg))
	if verbose {
		fmt.Println("theory:")
		fmt.Print(ilp.TheoryString(met.Theory))
	}
}

func printParallelMetrics(transport string, met *ilp.ParallelMetrics, width int) {
	line := fmt.Sprintf("p2-mdie[%s] p=%d w=%s: %d rules (%d adopted facts), %d epochs, %.2fs simulated (%.2fs wall), %.2f MB / %d msgs",
		transport, met.Workers, widthLabel(width), met.RulesLearned, met.GroundFactsAdopted, met.Epochs,
		met.VirtualTime.Seconds(), met.WallTime.Seconds(),
		float64(met.CommBytes)/1e6, met.CommMessages)
	if met.LostWorkers > 0 || met.Recoveries > 0 {
		line += fmt.Sprintf(", recoveries=%d lost=%d", met.Recoveries, met.LostWorkers)
	}
	if met.Rebalances > 0 || met.JoinedWorkers > 0 {
		line += fmt.Sprintf(", rebalances=%d joined=%d", met.Rebalances, met.JoinedWorkers)
	}
	if len(met.JoinShares) > 0 {
		line += fmt.Sprintf(", join shares=%v", met.JoinShares)
	}
	if met.MasterRestarts > 0 || met.OrphanReconnects > 0 {
		line += fmt.Sprintf(", restarts=%d orphanreconnects=%d", met.MasterRestarts, met.OrphanReconnects)
	}
	if met.LinkFlaps > 0 || met.ReplayedFrames > 0 || met.FencedFrames > 0 {
		line += fmt.Sprintf(", linkflaps=%d replayed=%d fenced=%d", met.LinkFlaps, met.ReplayedFrames, met.FencedFrames)
	}
	fmt.Println(line)
}

// trafficDump is the JSON shape of -traffic json.
type trafficDump struct {
	Transport  string         `json:"transport"`
	Nodes      int            `json:"nodes"`
	TotalBytes int64          `json:"total_bytes"`
	TotalMsgs  int64          `json:"total_msgs"`
	Links      []cluster.Link `json:"links"`
}

func dumpTraffic(mode, transport string, tr cluster.Traffic) {
	switch mode {
	case "json":
		out, err := json.MarshalIndent(trafficDump{
			Transport:  transport,
			Nodes:      tr.N,
			TotalBytes: tr.TotalBytes(),
			TotalMsgs:  tr.TotalMsgs(),
			Links:      tr.Links(),
		}, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Println(string(out))
	case "text":
		fmt.Print(tr.String())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "p2mdie:", err)
	os.Exit(1)
}

func widthLabel(w int) string {
	if w <= 0 {
		return "nolimit"
	}
	return fmt.Sprintf("%d", w)
}
