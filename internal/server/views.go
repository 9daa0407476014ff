package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	dcdatalog "repro"
)

// mutationOp is one relation's worth of changes inside a mutation
// batch: TSV rows to append and TSV rows to remove (multiset
// semantics — one occurrence per listed row, absent rows are no-ops).
type mutationOp struct {
	Relation string `json:"relation"`
	Insert   string `json:"insert,omitempty"`
	Delete   string `json:"delete,omitempty"`
}

// mutateRequest applies a batch of EDB mutations to a registered
// dataset and, by default, refreshes every materialized view that
// depends on the touched relations.
type mutateRequest struct {
	Dataset string       `json:"dataset"`
	Ops     []mutationOp `json:"ops"`
	// Refresh controls whether registered views are brought up to date
	// in this call (default true). When false the mutations queue in
	// each view's pending log and the next refresh absorbs them.
	Refresh   *bool `json:"refresh,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// viewRefreshResult reports how one view absorbed the batch.
type viewRefreshResult struct {
	Mode        string  `json:"mode"`
	Reason      string  `json:"reason,omitempty"`
	DeltaTuples int     `json:"delta_tuples"`
	DurationMS  float64 `json:"duration_ms"`
	Error       string  `json:"error,omitempty"`
}

type mutateResponse struct {
	Inserted int                          `json:"inserted"`
	Deleted  int                          `json:"deleted"`
	Views    map[string]viewRefreshResult `json:"views,omitempty"`
}

// viewRequest materializes a program over a registered dataset.
type viewRequest struct {
	Dataset   string         `json:"dataset"`
	Name      string         `json:"name"`
	Program   string         `json:"program"`
	Params    map[string]any `json:"params,omitempty"`
	Workers   int            `json:"workers,omitempty"`
	Crossover float64        `json:"crossover,omitempty"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

// viewInfo is one materialized view's registry entry with its
// cumulative refresh counters.
type viewInfo struct {
	Dataset        string   `json:"dataset"`
	View           string   `json:"view"`
	Relations      []string `json:"relations"`
	Refreshes      int64    `json:"refreshes"`
	Incremental    int64    `json:"incremental"`
	Full           int64    `json:"full"`
	DeltaTuples    int64    `json:"delta_tuples"`
	Pending        int      `json:"pending"`
	Stale          bool     `json:"stale,omitempty"`
	Ineligible     string   `json:"ineligible,omitempty"`
	LastMode       string   `json:"last_mode,omitempty"`
	LastReason     string   `json:"last_reason,omitempty"`
	LastDurationMS float64  `json:"last_duration_ms,omitempty"`
}

func viewInfoOf(dataset string, v *dcdatalog.View) viewInfo {
	st := v.Stats()
	return viewInfo{
		Dataset:        dataset,
		View:           v.Name(),
		Relations:      v.Relations(),
		Refreshes:      st.Refreshes,
		Incremental:    st.Incremental,
		Full:           st.Full,
		DeltaTuples:    st.DeltaTuples,
		Pending:        st.Pending,
		Stale:          st.Stale,
		Ineligible:     st.Ineligible,
		LastMode:       st.Last.Mode,
		LastReason:     st.Last.Reason,
		LastDurationMS: float64(st.Last.Duration.Nanoseconds()) / 1e6,
	}
}

// recordRefresh folds one view refresh into the scrapeable counters.
func (s *Server) recordRefresh(st dcdatalog.RefreshStats) {
	switch st.Mode {
	case "incremental":
		s.metrics.IvmRefreshIncremental.Add(1)
		s.metrics.IvmDeltaTuples.Add(int64(st.DeltaTuples))
	case "full":
		s.metrics.IvmRefreshFull.Add(1)
	default: // noop refreshes don't move the counters
		return
	}
	s.metrics.IvmRefreshSeconds.Observe(st.Duration)
}

// reqTimeout resolves a request's timeout against the server policy.
func (s *Server) reqTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// handleMutate applies one mutation batch under a write slot from the
// same admission plane queries use: mutations queue behind in-flight
// work, are shed with 429 when the queue is full, and are refused
// outright while the server drains.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req mutateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad mutate request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		httpError(w, http.StatusBadRequest, "mutate needs at least one op")
		return
	}
	ds, ok := s.registry.Get(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	db := ds.DB()

	// Parse every op before touching the database so a malformed row in
	// a later op cannot leave the batch half-applied.
	type parsedOp struct {
		rel      string
		ins, del []dcdatalog.Tuple
	}
	parsed := make([]parsedOp, 0, len(req.Ops))
	for _, op := range req.Ops {
		p := parsedOp{rel: op.Relation}
		var err error
		if op.Insert != "" {
			if p.ins, err = db.ParseTSV(op.Relation, strings.NewReader(op.Insert)); err != nil {
				s.metrics.MutationsFailed.Add(1)
				httpError(w, http.StatusBadRequest, "insert %s: %v", op.Relation, err)
				return
			}
		}
		if op.Delete != "" {
			if p.del, err = db.ParseTSV(op.Relation, strings.NewReader(op.Delete)); err != nil {
				s.metrics.MutationsFailed.Add(1)
				httpError(w, http.StatusBadRequest, "delete %s: %v", op.Relation, err)
				return
			}
		}
		parsed = append(parsed, p)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout(req.TimeoutMS))
	defer cancel()

	// One write slot: mutations serialize against the worker budget so
	// a mutation storm cannot starve queries, and Drain sees them as
	// in-flight work like everything else.
	_, release, err := s.adm.Acquire(ctx, 1)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.MutationsRejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		s.metrics.MutationsRejected.Add(1)
		httpError(w, http.StatusGatewayTimeout, "timed out in admission queue: %v", err)
		return
	}
	defer release()

	resp := mutateResponse{}
	for _, p := range parsed {
		if len(p.ins) > 0 {
			if err := db.InsertTuples(p.rel, p.ins); err != nil {
				s.metrics.MutationsFailed.Add(1)
				httpError(w, http.StatusInternalServerError, "insert %s: %v", p.rel, err)
				return
			}
			resp.Inserted += len(p.ins)
		}
		if len(p.del) > 0 {
			if err := db.DeleteTuples(p.rel, p.del); err != nil {
				s.metrics.MutationsFailed.Add(1)
				httpError(w, http.StatusInternalServerError, "delete %s: %v", p.rel, err)
				return
			}
			resp.Deleted += len(p.del)
		}
	}
	s.metrics.MutationsOK.Add(1)
	s.metrics.TuplesInserted.Add(int64(resp.Inserted))
	s.metrics.TuplesDeleted.Add(int64(resp.Deleted))

	if req.Refresh == nil || *req.Refresh {
		names := db.Views()
		if len(names) > 0 {
			resp.Views = make(map[string]viewRefreshResult, len(names))
			for _, name := range names {
				v := db.View(name)
				if v == nil {
					continue
				}
				st, err := v.Refresh(ctx)
				res := viewRefreshResult{
					Mode:        st.Mode,
					Reason:      st.Reason,
					DeltaTuples: st.DeltaTuples,
					DurationMS:  float64(st.Duration.Nanoseconds()) / 1e6,
				}
				if err != nil {
					res.Error = err.Error()
				} else {
					s.recordRefresh(st)
				}
				resp.Views[name] = res
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCreateView materializes a program over a dataset. The initial
// fixpoint is a full evaluation, so it claims worker slots through
// admission exactly like a query.
func (s *Server) handleCreateView(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req viewRequest
	if !decodeRequest(w, r, "view", &req) {
		return
	}
	if req.Name == "" || req.Program == "" {
		httpError(w, http.StatusBadRequest, "view needs a name and a program")
		return
	}
	ds, ok := s.registry.Get(req.Dataset)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	params, err := decodeParams(req.Params)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout(req.TimeoutMS))
	defer cancel()

	want := req.Workers
	if want <= 0 {
		want = s.cfg.DefaultWorkersPerQuery
	}
	if want > s.cfg.MaxWorkersPerQuery {
		want = s.cfg.MaxWorkersPerQuery
	}
	granted, release, err := s.adm.Acquire(ctx, want)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.Rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		s.metrics.QueriesCanceled.Add(1)
		httpError(w, http.StatusGatewayTimeout, "timed out in admission queue: %v", err)
		return
	}
	defer release()

	opts := []dcdatalog.Option{dcdatalog.WithWorkers(granted)}
	if req.Crossover != 0 {
		opts = append(opts, dcdatalog.WithCrossover(req.Crossover))
	}
	for k, v := range params {
		opts = append(opts, dcdatalog.WithParam(k, v))
	}
	v, err := ds.DB().MaterializeContext(ctx, req.Name, req.Program, opts...)
	if err != nil {
		switch {
		case strings.Contains(err.Error(), "already materialized"):
			httpError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, context.DeadlineExceeded):
			s.metrics.QueriesCanceled.Add(1)
			httpError(w, http.StatusGatewayTimeout, "%v", err)
		default:
			s.metrics.QueriesFailed.Add(1)
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, viewInfoOf(ds.Name, v))
}

// handleListViews lists every materialized view across datasets with
// its cumulative refresh counters.
func (s *Server) handleListViews(w http.ResponseWriter, r *http.Request) {
	out := []viewInfo{}
	for _, name := range s.registry.Names() {
		ds, ok := s.registry.Get(name)
		if !ok {
			continue
		}
		db := ds.DB()
		for _, vn := range db.Views() {
			if v := db.View(vn); v != nil {
				out = append(out, viewInfoOf(name, v))
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"views": out})
}
