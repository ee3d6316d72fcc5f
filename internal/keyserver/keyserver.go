// Package keyserver implements the Private Key Generator (PKG) of the
// paper (§V.B): the trusted party that runs IBE Setup, publishes the
// system parameters (P, sP), guards the master secret s, and extracts
// per-message private keys sI for retrieving clients that present a valid
// MWS-issued ticket.
//
// The PKG never learns message contents; it learns only which attribute
// digests keys were extracted for. Conversely, the RC never learns the
// attribute behind an AID: the PKG resolves AIDs from the sealed ticket
// the MWS minted (§V.D, RC–PKG phase).
package keyserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/ibs"
	"mwskit/internal/macauth"
	"mwskit/internal/metrics"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
	"mwskit/internal/par"
	"mwskit/internal/peks"
	"mwskit/internal/storage"
	"mwskit/internal/symenc"
	"mwskit/internal/ticket"
	"mwskit/internal/wire"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the PKG's data directory (master key persistence).
	Dir string
	// Preset names the pairing parameter set ("test", "bf80", "bf112").
	Preset string
	// MWSPKGKey is the long-term secret shared with the MWS (32 bytes).
	MWSPKGKey []byte
	// FreshnessWindow bounds authenticator skew (default 2 minutes).
	FreshnessWindow time.Duration
	// RequestTimeout bounds each network request end to end: a handler
	// past the deadline is cut off and the client receives a structured
	// CodeTimeout error frame (0 = no bound).
	RequestTimeout time.Duration
	// Sync selects store durability (default SyncAlways).
	Sync storage.SyncPolicy
	// Rand is the entropy source (default crypto/rand).
	Rand io.Reader
	// Now is the clock, swappable in tests.
	Now func() time.Time
	// Logger receives operational logs (nil discards).
	Logger *slog.Logger
	// Tracer records request spans for the debug surface and slow-request
	// log; nil disables tracing at zero cost.
	Tracer *obsv.Tracer
}

// Service is the running PKG.
type Service struct {
	cfg    Config
	sys    *pairing.System
	params *bfibe.Params
	master *bfibe.MasterKey
	kv     storage.CloserKV
	replay *macauth.ReplayGuard
	seal   symenc.Scheme
	stats  *metrics.Registry
	router *wire.Router
}

const masterKeyKey = "master-key"

// New opens (or creates) a PKG. On first start it runs IBE Setup and
// persists the master secret; later starts reload it, so extracted keys
// remain valid across restarts.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, errors.New("keyserver: Dir is required")
	}
	if len(cfg.MWSPKGKey) != 32 {
		return nil, errors.New("keyserver: MWSPKGKey must be 32 bytes")
	}
	pp, ok := pairing.Presets[cfg.Preset]
	if !ok {
		return nil, fmt.Errorf("keyserver: unknown preset %q", cfg.Preset)
	}
	if cfg.FreshnessWindow <= 0 {
		cfg.FreshnessWindow = 2 * time.Minute
	}
	if cfg.Rand == nil {
		cfg.Rand = attr.RandReader
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	sys, err := pp.System()
	if err != nil {
		return nil, err
	}
	kv, err := storage.OpenKV(filepath.Join(cfg.Dir, "pkg"), cfg.Sync)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		sys:    sys,
		kv:     kv,
		replay: macauth.NewReplayGuard(cfg.FreshnessWindow),
		stats:  metrics.NewRegistry(),
	}
	s.seal, err = symenc.ByName("AES-256-GCM")
	if err != nil {
		kv.Close()
		return nil, err
	}
	if raw, ok := kv.Get(masterKeyKey); ok {
		mk, err := bfibe.UnmarshalMasterKey(raw)
		if err != nil {
			kv.Close()
			return nil, fmt.Errorf("keyserver: corrupt master key: %w", err)
		}
		s.master = mk
		s.params = bfibe.ParamsFromMaster(sys, mk)
	} else {
		params, mk, err := bfibe.Setup(sys, cfg.Rand)
		if err != nil {
			kv.Close()
			return nil, err
		}
		if err := kv.Put(masterKeyKey, bfibe.MarshalMasterKey(mk)); err != nil {
			kv.Close()
			return nil, err
		}
		s.master = mk
		s.params = params
	}
	s.router = s.buildRouter()
	return s, nil
}

// Close releases the PKG's store.
func (s *Service) Close() error { return s.kv.Close() }

// Params returns the public IBE parameters.
func (s *Service) Params() *bfibe.Params { return s.params }

// PublicParams answers the parameter-distribution request smart devices
// issue at registration.
func (s *Service) PublicParams() *wire.ParamsResponse {
	return &wire.ParamsResponse{
		Preset: s.cfg.Preset,
		PPub:   bfibe.MarshalParams(s.params),
	}
}

// ExtractDeviceSigningKey issues the identity-based signing key for a
// device (the §VIII extension that replaces per-device shared MAC keys).
// This is a registration-channel operation, like MAC-key delivery: it is
// invoked by the operator, not exposed on the network endpoint.
func (s *Service) ExtractDeviceSigningKey(deviceID string) (*bfibe.PrivateKey, error) {
	if deviceID == "" {
		return nil, errors.New("keyserver: empty device ID")
	}
	return s.master.Extract(s.params, ibs.DeviceIdentity(deviceID))
}

// sealedKeyAAD binds extracted keys to their request context.
const sealedKeyAAD = "mwskit/keyserver/extract/v1"

// Extract serves the RC–PKG phase: verify the ticket (sealed by the MWS
// under the shared key), verify the authenticator (sealed under the
// ticket's session key, fresh, not replayed), then for each AID ‖ Nonce
// resolve the attribute from the ticket, derive the per-message identity
// I = SHA1(A ‖ Nonce), extract sI, and return it sealed under the session
// key — the paper's "secure channel".
func (s *Service) Extract(ctx context.Context, req *wire.ExtractRequest) (*wire.ExtractResponse, error) {
	if req == nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "empty extract"}
	}
	_, authSp := obsv.StartSpan(ctx, "ticket.open")
	authSp.SetAttr("rc", req.RC)
	tk, err := ticket.OpenTicket(s.cfg.MWSPKGKey, req.TicketBlob)
	if err != nil {
		authSp.SetErr(err)
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	if tk.RC != req.RC {
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	now := s.cfg.Now()
	auth, err := ticket.OpenAuthenticator(tk.SessionKey, req.Authenticator, now, s.cfg.FreshnessWindow)
	if err != nil {
		authSp.SetErr(err)
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	if auth.RC != req.RC {
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	// One authenticator, one extraction session: replaying the same
	// authenticator is rejected, which is how "a private key can only be
	// used once" (§V.C) is enforced at the PKG.
	if err := s.replay.Check(req.Authenticator, auth.Timestamp, now); err != nil {
		authSp.SetErr(err)
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeReplay, Message: err.Error()}
	}
	authSp.End()

	// Resolve every item before any extraction: a request naming an AID
	// its ticket does not grant, or a malformed nonce, is refused without
	// the master key doing any work.
	identities := make([][]byte, len(req.Items))
	for i, item := range req.Items {
		a, ok := tk.AttributeByAID(attr.ID(item.AID))
		if !ok {
			// The RC asked for an AID its ticket does not grant.
			return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: fmt.Sprintf("AID %d not granted", item.AID)}
		}
		nonce, err := attr.NonceFromBytes(item.Nonce)
		if err != nil {
			return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: err.Error()}
		}
		identities[i] = attr.Identity(a, nonce)
	}

	extractCtx, extSp := obsv.StartSpan(ctx, "ibe.extract")
	extSp.SetAttr("items", fmt.Sprintf("%d", len(req.Items)))
	defer extSp.End()
	resp := &wire.ExtractResponse{SealedKeys: make([][]byte, len(req.Items))}
	// Every item has its own identity, so the extractions are independent
	// and run across the cores.
	err = par.ForEach(extractCtx, len(identities), func(ctx context.Context, i int) error {
		// Each extraction is a scalar multiplication in G1; honor the
		// request deadline between items so a huge batch cannot pin the
		// server past its budget.
		if em := wire.CtxErr(ctx); em != nil {
			return em
		}
		sk, err := s.master.Extract(s.params, identities[i])
		if err != nil {
			s.cfg.Logger.Error("keyserver: extract", "err", err)
			return &wire.ErrorMsg{Code: wire.CodeInternal, Message: "extract failure"}
		}
		plain := bfibe.MarshalPrivateKey(s.params, sk)
		sealed, err := s.seal.Seal(tk.SessionKey, plain, []byte(sealedKeyAAD))
		if err != nil {
			return &wire.ErrorMsg{Code: wire.CodeInternal, Message: "seal failure"}
		}
		resp.SealedKeys[i] = sealed
		return nil
	})
	if err != nil {
		var em *wire.ErrorMsg
		if !errors.As(err, &em) {
			// The request's context ended between items: report it as the
			// per-item deadline check does.
			em = wire.CtxErr(extractCtx)
		}
		if em.Code == wire.CodeInternal {
			extSp.SetErr(err)
		}
		return nil, em
	}
	s.cfg.Logger.Debug("keyserver: extract", "rc", req.RC, "keys", len(req.Items))
	return resp, nil
}

// keywordAAD binds sealed keywords and trapdoors to their role.
const keywordAAD = "mwskit/keyserver/trapdoor/v1"

// Trapdoor serves a PEKS keyword-trapdoor request (searchable encryption,
// related work [1]): same ticket + authenticator discipline as Extract,
// with the keyword and the returned trapdoor both sealed under the RC–PKG
// session key so the search term never travels in the clear.
func (s *Service) Trapdoor(ctx context.Context, req *wire.TrapdoorRequest) (*wire.TrapdoorResponse, error) {
	if req == nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "empty trapdoor request"}
	}
	if em := wire.CtxErr(ctx); em != nil {
		return nil, em
	}
	tk, err := ticket.OpenTicket(s.cfg.MWSPKGKey, req.TicketBlob)
	if err != nil || tk.RC != req.RC {
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	now := s.cfg.Now()
	auth, err := ticket.OpenAuthenticator(tk.SessionKey, req.Authenticator, now, s.cfg.FreshnessWindow)
	if err != nil || auth.RC != req.RC {
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	if err := s.replay.Check(req.Authenticator, auth.Timestamp, now); err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeReplay, Message: err.Error()}
	}
	kw, err := s.seal.Open(tk.SessionKey, req.SealedKeyword, []byte(keywordAAD))
	if err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "malformed keyword"}
	}
	td, err := peks.NewTrapdoor(s.params, s.master, string(kw))
	if err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	sealed, err := s.seal.Seal(tk.SessionKey, peks.MarshalTrapdoor(s.params, td), []byte(keywordAAD))
	if err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "seal failure"}
	}
	s.cfg.Logger.Debug("keyserver: trapdoor issued", "rc", req.RC)
	return &wire.TrapdoorResponse{SealedTrapdoor: sealed}, nil
}

// OpenSealedKey is the client-side inverse of the Extract sealing,
// exported for the rclient package.
func OpenSealedKey(params *bfibe.Params, sessionKey, sealed []byte) (*bfibe.PrivateKey, error) {
	scheme, err := symenc.ByName("AES-256-GCM")
	if err != nil {
		return nil, err
	}
	plain, err := scheme.Open(sessionKey, sealed, []byte(sealedKeyAAD))
	if err != nil {
		return nil, fmt.Errorf("keyserver: sealed key: %w", err)
	}
	return bfibe.UnmarshalPrivateKey(params, plain)
}

// buildRouter assembles the PKG's request pipeline: tracing outermost
// (so the request span covers the whole pipeline), then instrumentation
// (so it observes timeouts too), then the request deadline, then panic
// recovery closest to the handler.
func (s *Service) buildRouter() *wire.Router {
	r := wire.NewRouter()
	r.Use(
		wire.Trace(s.cfg.Tracer),
		wire.Instrument(s.stats),
		wire.WithTimeout(s.cfg.RequestTimeout),
		wire.Recover(s.cfg.Logger),
	)
	r.HandleFunc(wire.TPing, func(ctx context.Context, f wire.Frame) wire.Frame {
		return wire.Frame{Type: wire.TPong}
	})
	r.HandleFunc(wire.TParams, func(ctx context.Context, f wire.Frame) wire.Frame {
		return wire.Frame{Type: wire.TParamsResp, Payload: s.PublicParams().Marshal()}
	})
	wire.Route(r, wire.TExtract, wire.TExtractResp, wire.UnmarshalExtractRequest, s.Extract)
	wire.Route(r, wire.TTrapdoor, wire.TTrapdoorResp, wire.UnmarshalTrapdoorRequest, s.Trapdoor)
	wire.RegisterStats(r, s.stats)
	wire.RegisterTrace(r, s.cfg.Tracer)
	return r
}

// Tracer returns the service's tracer (nil when tracing is disabled).
func (s *Service) Tracer() *obsv.Tracer { return s.cfg.Tracer }

// Router exposes the PKG's request pipeline (all routes registered,
// middleware attached).
func (s *Service) Router() *wire.Router { return s.router }

// Handle dispatches one frame through the pipeline, making *Service a
// wire.Handler.
func (s *Service) Handle(ctx context.Context, f wire.Frame) wire.Frame {
	return s.router.Handle(ctx, f)
}

// Metrics returns a point-in-time per-op snapshot (request and error
// counts, latency distribution) keyed by request frame type name.
func (s *Service) Metrics() map[string]metrics.OpSnapshot { return s.stats.Snapshot() }

// StatsRegistry exposes the live registry so the debug listener can
// render labeled counters and gauges alongside the per-op series.
func (s *Service) StatsRegistry() *metrics.Registry { return s.stats }

// ListenAndServe starts a wire server for the PKG.
func (s *Service) ListenAndServe(addr string, opts ...wire.ServerOption) (*wire.Server, net.Addr, error) {
	srv := wire.NewServer(s.router, s.cfg.Logger, opts...)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, bound, nil
}
