package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/core"
	"mwskit/internal/device"
	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/sim"
	"mwskit/internal/storage"
	"mwskit/internal/wire"
)

// rcName is the Figure 1 receiving client every workload enrolls: it is
// granted every attribute of the fleet, so it can read back anything.
const rcName = "C-Services"

// ringSize bounds each tracer's span ring in a traced run. It holds every
// span of a run with room to spare (utility-pull's MWS ring is the
// fullest: about 6 spans for each of its ~5k deposits at 20 s), so
// attribution never works from a truncated trace; a truncated one would
// fail the check that every RPC has a server span.
const ringSize = 1 << 19

// markerPrefix opens every generated payload. The rest of the marker
// names the meter and message, so each payload carries its own marker,
// and one scan for the prefix finds any of them in the MWS data
// directory.
const markerPrefix = "MWSBENCH-PLAINTEXT:"

// meter is one registered smart device of the generated fleet.
type meter struct {
	idx  int
	id   string
	a    attr.Attribute
	dev  *device.Device
	next int // index of the meter's next message
}

// env is one running deployment with its registered fleet, enrolled RC
// and open connections: everything set-up builds.
type env struct {
	dir    string
	dep    *core.Deployment
	mwsT   *obsv.Tracer // nil when untraced
	pkgT   *obsv.Tracer
	cliT   *obsv.Tracer
	mws    []*wire.Client // one connection per generator goroutine
	pkg    *wire.Client   // opened for the pull phase, see pullConns
	rc     *rclient.Client
	meters []*meter
}

// newEnv starts a deployment in the configuration `mwsd serve` and
// `pkgd` use by default (SyncAlways, the default storage backend and
// group commit, MAC device auth, AES-128-GCM, their request limits),
// registers the workload's fleet and enrolls the Figure 1 RC.
func newEnv(cfg config, w workload, traced bool) (e *env, err error) {
	dir, err := os.MkdirTemp(cfg.scratch, "run-*")
	if err != nil {
		return nil, err
	}
	e = &env{dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	dc := core.DeploymentConfig{
		Dir:             dir,
		Preset:          cfg.preset,
		Scheme:          "AES-128-GCM",
		FreshnessWindow: 2 * time.Minute,
		RequestTimeout:  30 * time.Second,
		IdleTimeout:     5 * time.Minute,
		MaxConns:        4096,
		Sync:            storage.SyncAlways,
		Storage:         storage.Options{GroupCommit: storage.DefaultGroupCommit},
	}
	if traced {
		e.mwsT = obsv.NewTracer("mws", ringSize, 0, nil)
		e.pkgT = obsv.NewTracer("pkg", ringSize, 0, nil)
		e.cliT = obsv.NewTracer("bench", ringSize, 0, nil)
		dc.MWSTracer, dc.PKGTracer = e.mwsT, e.pkgT
	}
	if e.dep, err = core.NewDeployment(dc); err != nil {
		return e, fmt.Errorf("deployment: %w", err)
	}
	if err = e.dep.Start(); err != nil {
		return e, fmt.Errorf("start: %w", err)
	}
	for i := 0; i < generators; i++ {
		c, err := e.dial(e.dep.DialMWS)
		if err != nil {
			return e, err
		}
		e.mws = append(e.mws, c)
	}

	fleet := sim.NewFleet(sim.FleetConfig{Seed: cfg.seed, PerSite: w.fleet})
	for i, m := range fleet.Meters {
		key, err := e.dep.MWS.RegisterDevice(m.ID)
		if err != nil {
			return e, fmt.Errorf("register %s: %w", m.ID, err)
		}
		dev, err := e.dep.NewDevice(m.ID, key, device.WithNonceEpoch(w.epoch))
		if err != nil {
			return e, err
		}
		e.meters = append(e.meters, &meter{idx: i, id: m.ID, a: m.Attribute(), dev: dev})
	}
	// Enrol the RC as `mwsd register-client` does, with the public half
	// of the key it generated itself.
	pw := []byte("pw-" + rcName)
	if err = e.dep.MWS.RegisterClient(rcName, pw, &cfg.rcKey.PublicKey); err != nil {
		return e, fmt.Errorf("enroll: %w", err)
	}
	if e.rc, err = rclient.New(rcName, pw, cfg.rcKey, e.dep.Params()); err != nil {
		return e, fmt.Errorf("rc client: %w", err)
	}
	for _, a := range sim.Figure1Scenario([]string{"APTCOMPLEX-SV-CA"}).Companies[rcName] {
		if _, err := e.dep.Grant(rcName, a); err != nil {
			return e, fmt.Errorf("grant: %w", err)
		}
	}
	return e, nil
}

// dial opens a connection and, on a traced env, negotiates the wire
// protocol version that carries trace context.
func (e *env) dial(d func() (*wire.Client, error)) (*wire.Client, error) {
	c, err := d()
	if err != nil || e.cliT == nil {
		return c, err
	}
	if _, err := c.EnableTrace(context.Background()); err != nil {
		c.Close()
		return nil, fmt.Errorf("enable trace: %w", err)
	}
	return c, nil
}

// pullConns switches from the deposit side's connections to the pull
// side's: it keeps one MWS connection and opens the PKG one, so the
// benchmark never holds more than two.
func (e *env) pullConns() error {
	if e.pkg != nil {
		return nil
	}
	for _, c := range e.mws[1:] {
		if err := c.Close(); err != nil {
			return err
		}
	}
	e.mws = e.mws[:1]
	c, err := e.dial(e.dep.DialPKG)
	if err != nil {
		return err
	}
	e.pkg = c
	return nil
}

// mwsDir is the MWS data directory inside the deployment.
func (e *env) mwsDir() string { return filepath.Join(e.dir, "mws") }

// stopServing closes the connections and the deployment, leaving the
// data directory in place for the plaintext scan.
func (e *env) stopServing() error {
	var errs []error
	for _, c := range e.mws {
		errs = append(errs, c.Close())
	}
	e.mws = nil
	if e.pkg != nil {
		errs = append(errs, e.pkg.Close())
		e.pkg = nil
	}
	if e.dep != nil {
		errs = append(errs, e.dep.Close())
		e.dep = nil
	}
	return errors.Join(errs...)
}

// close stops the deployment and removes its data directory.
func (e *env) close() {
	_ = e.stopServing() // teardown of a finished or failed run; nothing left to report to
	_ = os.RemoveAll(e.dir)
}

// payloadFor regenerates the payload meter m sends as its n-th message:
// the per-payload marker, then filler drawn from the seed. Deposit and
// verification both call it, so expected payloads need not be kept.
func payloadFor(seed int64, m, n, size int) []byte {
	p := make([]byte, size)
	mark := fmt.Appendf(nil, "%s%04x:%08x|", markerPrefix, m, n)
	copy(p, mark)
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(m)<<32|uint64(n)))
	for i := len(mark); i < size; i++ {
		p[i] = byte(rng.Uint32())
	}
	return p
}

// scanPlaintext reports every file under dir that contains a payload
// marker. It streams each file with an overlap of the prefix length so a
// marker split across reads is still found.
func scanPlaintext(dir string) ([]string, error) {
	prefix := []byte(markerPrefix)
	var hits []string
	buf := make([]byte, 1<<20)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		keep := 0
		for {
			n, rerr := f.Read(buf[keep:])
			data := buf[:keep+n]
			if bytes.Contains(data, prefix) {
				hits = append(hits, path)
				return nil
			}
			if rerr == io.EOF {
				return nil
			}
			if rerr != nil {
				return rerr
			}
			keep = min(len(prefix)-1, len(data))
			copy(buf, data[len(data)-keep:])
		}
	})
	return hits, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// plantMarker writes a file holding a payload marker into dir, the fault
// the plaintext scan must catch.
func plantMarker(dir string) error {
	return os.WriteFile(filepath.Join(dir, "planted"), []byte("x"+markerPrefix+"0000:00000000|"), 0o644)
}
