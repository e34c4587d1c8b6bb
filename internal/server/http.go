package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"copydetect/internal/bayes"
	"copydetect/internal/dataset"
)

// NewHandler exposes a registry over HTTP/JSON — the copydetectd wire
// protocol:
//
//	GET    /healthz                            liveness probe
//	GET    /v1/datasets                        list datasets
//	PUT    /v1/datasets/{name}                 create (optional config body)
//	GET    /v1/datasets/{name}                 dataset info
//	DELETE /v1/datasets/{name}                 delete
//	POST   /v1/datasets/{name}/observations    append a batch
//	GET    /v1/datasets/{name}/copies          cached copying pairs (ETag)
//	GET    /v1/datasets/{name}/truth           cached decided truths (ETag)
//	GET    /v1/datasets/{name}/stats           dataset + detection stats
//	POST   /v1/datasets/{name}/quiesce         block until converged
//	GET    /v1/datasets/{name}/export          binary state snapshot (anti-entropy)
//	POST   /v1/datasets/{name}/import          install a peer's export blob
//
// Reads serve the last published detection round and never block on
// detection; they carry an ETag that changes exactly when a new round is
// published or the round's convergence flag flips, and honor
// If-None-Match with 304. The copies and truth bodies are rendered once
// per published round, before it is published, and served as bytes.
//
// An append may carry an X-Copydetect-Seq header naming its per-dataset
// sequence number (sequence n must be the dataset's nth append). A
// sequence the dataset has already passed is acknowledged without being
// re-applied — replication layers use this to make re-sent batches
// idempotent — and a sequence from the future fails with 409, because
// applying it would reorder the stream. export and import are the
// anti-entropy pair: export captures the full appended state (plus the
// rounds counter) in the bit-exact binary codec, and import installs it
// on a peer if and only if it is newer than what the peer holds.
func NewHandler(reg *Registry) http.Handler {
	return &handler{reg: reg}
}

type handler struct {
	reg *Registry
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// SeqHeader carries a per-dataset append sequence number (see
// Managed.AppendSeq); ReplicaHeader marks a gateway response that was
// served by a failover replica rather than the dataset's ring owner.
const (
	SeqHeader     = "X-Copydetect-Seq"
	ReplicaHeader = "X-Copydetect-Replica"
)

// maxImportBytes bounds one import blob (matches the WAL's own record
// ceiling, which the blob must fit inside to be durable).
const maxImportBytes = 1 << 28

// maxBodyBytes bounds one JSON request body, matching the gateway's
// maxWriteBody so a direct daemon append hits the same 413 a proxied
// one would. A var so tests can exercise the limit without a 256 MiB
// request.
var maxBodyBytes int64 = 1 << 28

// backlogRetryAfterSeconds is the Retry-After hint sent with 429
// admission rejections: long enough for a detection round to publish
// on small datasets, short enough that load generators keep pressure.
const backlogRetryAfterSeconds = 1

// createRequest names a dataset's priors. An omitted (zero) field takes
// the paper's default on every daemon (DatasetConfig).
type createRequest struct {
	Alpha float64 `json:"alpha,omitempty"`
	S     float64 `json:"s,omitempty"`
	N     float64 `json:"n,omitempty"`
}

// appendRequest is a batch of observations, in the s/d/v field naming of
// the dataset JSON format, plus optional gold-standard truths.
type appendRequest struct {
	Observations []dataset.Record `json:"observations"`
	Truth        []dataset.Record `json:"truth,omitempty"`
}

type appendResponse struct {
	Dataset      string `json:"dataset"`
	Version      uint64 `json:"version"`
	Appended     int    `json:"appended"`
	Observations int    `json:"observations"`
	// Duplicate marks a sequenced append whose sequence number the
	// dataset had already passed: acknowledged, nothing re-applied.
	Duplicate bool `json:"duplicate,omitempty"`
}

type importResponse struct {
	Dataset string `json:"dataset"`
	Applied bool   `json:"applied"`
	Version uint64 `json:"version"`
}

type copyingPair struct {
	S1        string  `json:"s1"`
	S2        string  `json:"s2"`
	Direction string  `json:"direction"`
	PrIndep   float64 `json:"prIndep"`
	PrTo      float64 `json:"prTo"`
	PrFrom    float64 `json:"prFrom"`
}

type copiesResponse struct {
	Dataset   string        `json:"dataset"`
	Version   uint64        `json:"version"`
	Round     int           `json:"round"`
	Algorithm string        `json:"algorithm,omitempty"`
	Converged bool          `json:"converged"`
	Pairs     []copyingPair `json:"pairs"`
}

// truthResponse is the shape of the …/truth body; appendTruth writes it
// without encoding/json.
type truthResponse struct {
	Dataset   string            `json:"dataset"`
	Version   uint64            `json:"version"`
	Round     int               `json:"round"`
	Converged bool              `json:"converged"`
	Truth     map[string]string `json:"truth"`
}

type statsResponse struct {
	Info
	DetectRounds    int     `json:"detectRounds"`
	Computations    int64   `json:"computations"`
	PairsConsidered int64   `json:"pairsConsidered"`
	CopyingPairs    int     `json:"copyingPairs"`
	DetectMillis    float64 `json:"detectMillis"`
	FusionMillis    float64 `json:"fusionMillis"`
	WallMillis      float64 `json:"wallMillis"`
}

func (h *handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	path := req.URL.Path
	switch {
	case path == "/healthz":
		if req.Method != http.MethodGet {
			WriteErr(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case path == "/v1/datasets":
		if req.Method != http.MethodGet {
			WriteErr(w, http.StatusMethodNotAllowed, "use GET; create with PUT /v1/datasets/{name}")
			return
		}
		h.list(w)
	case strings.HasPrefix(path, "/v1/datasets/"):
		h.dataset(w, req, strings.TrimPrefix(path, "/v1/datasets/"))
	default:
		WriteErr(w, http.StatusNotFound, "unknown path")
	}
}

// byName is a handler for a dataset that may not exist yet.
type byName func(h *handler, w http.ResponseWriter, req *http.Request, name string)

// existing adapts a handler for an existing dataset: it resolves the
// name, or answers 404.
func existing(serve func(h *handler, w http.ResponseWriter, req *http.Request, m *Managed)) byName {
	return func(h *handler, w http.ResponseWriter, req *http.Request, name string) {
		m, ok := h.reg.Get(name)
		if !ok {
			WriteErr(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		serve(h, w, req, m)
	}
}

// datasetOps routes /v1/datasets/{name}/{op}: the one method each
// operation accepts and its handler.
var datasetOps = map[string]struct {
	method string
	serve  byName
}{
	"observations": {http.MethodPost, existing((*handler).append)},
	"copies":       {http.MethodGet, existing((*handler).copies)},
	"truth":        {http.MethodGet, existing((*handler).truth)},
	"stats":        {http.MethodGet, existing((*handler).stats)},
	"quiesce":      {http.MethodPost, existing((*handler).quiesce)},
	"export":       {http.MethodGet, existing((*handler).export)},
	"import":       {http.MethodPost, (*handler).importState},
}

func (h *handler) dataset(w http.ResponseWriter, req *http.Request, rest string) {
	parts := strings.Split(rest, "/")
	name := parts[0]
	if name == "" || len(parts) > 2 {
		WriteErr(w, http.StatusNotFound, "unknown path")
		return
	}
	if len(parts) == 1 {
		switch req.Method {
		case http.MethodPut:
			h.create(w, req, name)
		case http.MethodGet:
			existing((*handler).info)(h, w, req, name)
		case http.MethodDelete:
			h.delete(w, name)
		default:
			WriteErr(w, http.StatusMethodNotAllowed, "use PUT, GET or DELETE")
		}
		return
	}
	switch op, ok := datasetOps[parts[1]]; {
	case !ok:
		WriteErr(w, http.StatusNotFound, "unknown path")
	case req.Method != op.method:
		WriteErr(w, http.StatusMethodNotAllowed, "use "+op.method)
	default:
		op.serve(h, w, req, name)
	}
}

func (h *handler) list(w http.ResponseWriter) {
	infos := []Info{} // "datasets": [] rather than null when empty
	for _, m := range h.reg.datasets() {
		infos = append(infos, m.Info())
	}
	WriteJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (h *handler) create(w http.ResponseWriter, req *http.Request, name string) {
	var cr createRequest
	if err := decodeBody(w, req, &cr); err != nil {
		writeDecodeErr(w, err)
		return
	}
	m, err := h.reg.Create(name, DatasetConfig{Params: bayes.Params{Alpha: cr.Alpha, S: cr.S, N: cr.N}})
	if err != nil {
		writeOpErr(w, err, http.StatusBadRequest)
		return
	}
	WriteJSON(w, http.StatusCreated, m.Info())
}

func (h *handler) info(w http.ResponseWriter, _ *http.Request, m *Managed) {
	WriteJSON(w, http.StatusOK, m.Info())
}

func (h *handler) delete(w http.ResponseWriter, name string) {
	if !h.reg.Delete(name) {
		WriteErr(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (h *handler) append(w http.ResponseWriter, req *http.Request, m *Managed) {
	// From before the body is read until after the reply, the scheduler
	// leaves this dataset alone (see claimDirty).
	m.appendBegin()
	defer m.appendEnd()
	ar, err := decodeAppend(w, req)
	if err != nil {
		writeDecodeErr(w, err)
		return
	}
	if len(ar.Observations) == 0 && len(ar.Truth) == 0 {
		WriteErr(w, http.StatusBadRequest, "empty batch: provide observations and/or truth")
		return
	}
	for i, o := range ar.Observations {
		if o.Source == "" || o.Item == "" || o.Value == "" {
			WriteErr(w, http.StatusBadRequest,
				"observation "+strconv.Itoa(i)+": s, d and v must all be non-empty")
			return
		}
	}
	for i, tr := range ar.Truth {
		if tr.Item == "" || tr.Value == "" {
			WriteErr(w, http.StatusBadRequest,
				"truth "+strconv.Itoa(i)+": d and v must be non-empty")
			return
		}
	}
	var seq uint64
	if raw := req.Header.Get(SeqHeader); raw != "" {
		parsed, perr := strconv.ParseUint(raw, 10, 64)
		if perr != nil || parsed == 0 {
			WriteErr(w, http.StatusBadRequest, SeqHeader+" must be a positive integer")
			return
		}
		seq = parsed
	}
	version, total, applied, err := m.AppendSeq(ar.Observations, ar.Truth, seq)
	if err != nil {
		// 500: a durable registry refused the batch because it could not
		// be logged; nothing was applied, so the client may retry.
		writeOpErr(w, err, http.StatusInternalServerError)
		return
	}
	appended := len(ar.Observations)
	if !applied {
		appended = 0
	}
	WriteJSON(w, http.StatusAccepted, appendResponse{
		Dataset:      m.name,
		Version:      version,
		Appended:     appended,
		Observations: total,
		Duplicate:    !applied,
	})
}

// export streams the dataset's full appended state in the binary
// anti-entropy format.
func (h *handler) export(w http.ResponseWriter, _ *http.Request, m *Managed) {
	blob, err := m.Export()
	if err != nil {
		writeOpErr(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// importState installs an export blob from a replication peer.
func (h *handler) importState(w http.ResponseWriter, req *http.Request, name string) {
	blob, err := io.ReadAll(io.LimitReader(req.Body, maxImportBytes+1))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(blob) > maxImportBytes {
		WriteErr(w, http.StatusRequestEntityTooLarge, "import blob exceeds the size limit")
		return
	}
	applied, version, err := h.reg.Import(name, blob)
	if err != nil {
		writeOpErr(w, err, http.StatusBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, importResponse{Dataset: name, Applied: applied, Version: version})
}

// serveCached handles the shared ETag negotiation of the read endpoints:
// it answers 304 and returns false when the client holds the current
// tag, and otherwise returns the view whose body to write.
func serveCached(w http.ResponseWriter, req *http.Request, m *Managed) (readView, bool) {
	v := m.readView()
	w.Header().Set("ETag", v.etag)
	if match := req.Header.Get("If-None-Match"); match != "" && match == v.etag {
		w.WriteHeader(http.StatusNotModified)
		return readView{}, false
	}
	return v, true
}

func (h *handler) copies(w http.ResponseWriter, req *http.Request, m *Managed) {
	if v, ok := serveCached(w, req, m); ok {
		writeBody(w, http.StatusOK, v.copies)
	}
}

func (h *handler) truth(w http.ResponseWriter, req *http.Request, m *Managed) {
	if v, ok := serveCached(w, req, m); ok {
		writeBody(w, http.StatusOK, v.truth)
	}
}

// testHookRender, when non-nil, runs at every renderReads. Test-only.
var testHookRender func()

// renderReads renders the read bodies of dataset name (creation
// generation gen) at round pub, nil before the first round. Each body is
// rendered once, converged; its unconverged twin is that render with the
// "converged" member swapped (unconverged).
func renderReads(name string, gen uint64, pub *Published) *readBodies {
	if testHookRender != nil {
		testHookRender()
	}
	version, round := uint64(0), 0
	if pub != nil {
		version, round = pub.Version, pub.Round
	}
	tag := fmt.Sprintf("%s-g%d-v%d-r%d", name, gen, version, round)
	copies := encodeJSON(copiesOf(name, pub, true))
	truth := appendTruth(nil, name, pub)
	return &readBodies{
		etag:   [2]string{strconv.Quote(tag), strconv.Quote(tag + "-u")},
		copies: [2][]byte{copies, unconverged(copies)},
		truth:  [2][]byte{truth, unconverged(truth)},
	}
}

// convergedTrue opens a converged read body's "converged" member. The
// member follows "dataset", whose escaped name holds no raw newline, so
// the first match in a body is that member.
const convergedTrue = "\n  \"converged\": true"

// unconverged returns a copy of a converged read body whose "converged"
// member is false.
func unconverged(body []byte) []byte {
	head, tail, _ := bytes.Cut(body, []byte(convergedTrue))
	out := make([]byte, 0, len(body)+1)
	out = append(out, head...)
	out = append(out, "\n  \"converged\": false"...)
	return append(out, tail...)
}

// copiesOf is the …/copies response of dataset name at round pub (nil
// before the first round).
func copiesOf(name string, pub *Published, converged bool) copiesResponse {
	resp := copiesResponse{Dataset: name, Converged: converged, Pairs: []copyingPair{}}
	if pub != nil {
		resp.Version, resp.Round, resp.Algorithm = pub.Version, pub.Round, pub.Algorithm
		for _, pr := range pub.Outcome.Copy.CopyingPairs() {
			resp.Pairs = append(resp.Pairs, copyingPair{
				S1:        pub.Snapshot.SourceNames[pr.S1],
				S2:        pub.Snapshot.SourceNames[pr.S2],
				Direction: pr.Direction(pub.Snapshot.SourceNames),
				PrIndep:   pr.PrIndep, PrTo: pr.PrTo, PrFrom: pr.PrFrom,
			})
		}
	}
	return resp
}

// appendTruth appends the converged …/truth body of dataset name at
// round pub (nil before the first round) to dst: the bytes encodeJSON
// writes for that truthResponse, without the map it would build and the
// reflection it would sort the map's keys with. It writes the items in
// name order, as encoding/json orders map keys: pub's order, or one
// sorted here when pub has none.
func appendTruth(dst []byte, name string, pub *Published) []byte {
	version, round := uint64(0), 0
	size := 128 + len(name) // the body's size, escapes aside
	var order []dataset.ItemID
	if pub != nil {
		version, round, order = pub.Version, pub.Round, pub.order
		if order == nil {
			order = new(itemOrder).update(0, pub.Snapshot.ItemNames)
		}
		for d, val := range pub.Outcome.Truth {
			if val != dataset.NoValue {
				size += len(pub.Snapshot.ItemNames[d]) + len(pub.Snapshot.ValueNames[d][val]) + 12
			}
		}
	}
	dst = slices.Grow(dst, size)
	dst = appendJSONString(append(dst, "{\n  \"dataset\": "...), name)
	dst = strconv.AppendUint(append(dst, ",\n  \"version\": "...), version, 10)
	dst = strconv.AppendInt(append(dst, ",\n  \"round\": "...), int64(round), 10)
	dst = append(dst, ",\n  \"converged\": true,\n  \"truth\": {"...)
	sep := ""
	for _, d := range order {
		if val := pub.Outcome.Truth[d]; val != dataset.NoValue {
			dst = appendJSONString(append(append(dst, sep...), "\n    "...), pub.Snapshot.ItemNames[d])
			dst = appendJSONString(append(dst, ": "...), pub.Snapshot.ValueNames[d][val])
			sep = ","
		}
	}
	if sep != "" {
		dst = append(dst, "\n  "...)
	}
	return append(dst, "}\n}\n"...)
}

// itemOrder carries a dataset's item ids in name order from one render to
// the next. Items only arrive between two imports (Managed.interning), so
// a render of the same interning sorts only the items added since the last
// and merges them in; any other starts afresh.
type itemOrder struct {
	interning uint64
	ids       []dataset.ItemID
}

// update returns the ids of names, the item names of a snapshot built
// under interning, in name order, and keeps them for the next call.
func (o *itemOrder) update(interning uint64, names []string) []dataset.ItemID {
	prev := o.ids
	if o.interning != interning || len(prev) > len(names) {
		prev = nil
	}
	byName := func(a, b dataset.ItemID) int { return strings.Compare(names[a], names[b]) }
	added := make([]dataset.ItemID, 0, len(names)-len(prev))
	for d := len(prev); d < len(names); d++ {
		added = append(added, dataset.ItemID(d))
	}
	slices.SortFunc(added, byName)
	ids := make([]dataset.ItemID, 0, len(names))
	for len(prev) > 0 && len(added) > 0 {
		if byName(prev[0], added[0]) < 0 {
			ids, prev = append(ids, prev[0]), prev[1:]
		} else {
			ids, added = append(ids, added[0]), added[1:]
		}
	}
	ids = append(append(ids, prev...), added...)
	o.interning, o.ids = interning, ids
	return ids
}

// appendJSONString appends s quoted as encoding/json writes it. A string
// of printable ASCII that needs no escape (no quote, backslash, <, > or
// &) is copied as it is; any other is handed to encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

func (h *handler) stats(w http.ResponseWriter, _ *http.Request, m *Managed) {
	resp := statsResponse{Info: m.Info()}
	if pub := m.Published(); pub != nil {
		out := pub.Outcome
		resp.DetectRounds = out.Rounds
		resp.Computations = out.TotalStats.Computations
		resp.PairsConsidered = out.TotalStats.PairsConsidered
		resp.CopyingPairs = len(out.Copy.CopyingPairs())
		resp.DetectMillis = out.TotalStats.Total().Seconds() * 1e3
		resp.FusionMillis = out.FusionTime.Seconds() * 1e3
		resp.WallMillis = pub.Wall.Seconds() * 1e3
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (h *handler) quiesce(w http.ResponseWriter, req *http.Request, m *Managed) {
	if _, err := h.reg.Quiesce(req.Context(), m.name); err != nil {
		code := http.StatusNotFound
		if req.Context().Err() != nil {
			code = http.StatusRequestTimeout
		}
		WriteErr(w, code, err.Error())
		return
	}
	h.stats(w, req, m)
}

// decodeBody decodes a JSON request body capped at maxBodyBytes; the
// cap matters because append bodies are buffered into the dataset
// builder and the WAL, so an unbounded body is an unbounded
// allocation.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) error {
	return decodeJSON(http.MaxBytesReader(w, req.Body, maxBodyBytes), v)
}

// decodeJSON decodes the one JSON value r holds into v.
func decodeJSON(r io.Reader, v any) error {
	err := json.NewDecoder(r).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return nil // an empty body means all defaults
	}
	return err
}

// decodeAppend reads an append body, capped like every other body, and
// decodes it: with dataset.ScanAppendBody when it is in the canonical
// form every client of ours sends, whose records are substrings of the
// one string made of the body, and with encoding/json when it is not.
// The decoder is handed the bytes read followed by the reader itself,
// which stays at its end or its error (*http.MaxBytesError included), so
// it sees the stream it would have seen alone and accepts or refuses it
// for the same reason.
func decodeAppend(w http.ResponseWriter, req *http.Request) (appendRequest, error) {
	body := http.MaxBytesReader(w, req.Body, maxBodyBytes)
	var buf bytes.Buffer
	if n := req.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxBodyBytes, maxPresizedBody)) + bytes.MinRead)
	}
	_, _ = buf.ReadFrom(body) // a failed read is a short one: whoever wants more bytes meets the error again
	var ar appendRequest
	var ok bool
	if ar.Observations, ar.Truth, ok = dataset.ScanAppendBody(buf.String()); ok {
		return ar, nil
	}
	return ar, decodeJSON(io.MultiReader(&buf, body), &ar)
}

// maxPresizedBody bounds the buffer a Content-Length header alone can
// make decodeAppend allocate; a larger body grows it as it arrives.
const maxPresizedBody = 1 << 20

// writeOpErr answers a failed registry operation: each sentinel error
// has one status on the wire, anything else gets fallback.
func writeOpErr(w http.ResponseWriter, err error, fallback int) {
	code := fallback
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, ErrSeqGap), errors.Is(err, ErrPriorsMismatch):
		// ErrSeqGap: the batch is from the future — this replica is
		// missing earlier appends and needs an anti-entropy import
		// before it can accept the stream again. ErrPriorsMismatch: the
		// blob is another model's dataset; nothing was applied.
		code = http.StatusConflict
	case errors.Is(err, ErrBacklog):
		// Admission control: convergence lag reached the high-water
		// mark. Nothing was applied; the client should back off.
		w.Header().Set("Retry-After", strconv.Itoa(backlogRetryAfterSeconds))
		code = http.StatusTooManyRequests
	}
	WriteErr(w, code, err.Error())
}

// writeDecodeErr maps a decodeBody failure: an over-limit body is 413
// (matching the gateway's maxWriteBody behaviour), anything else is a
// malformed request.
func writeDecodeErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteErr(w, http.StatusRequestEntityTooLarge, "request body exceeds the size limit")
		return
	}
	WriteErr(w, http.StatusBadRequest, err.Error())
}

// WriteJSON writes v as the indented JSON body of a response with the
// given status code — the one response formatting of the wire protocol,
// shared with the gateway so its own responses are indistinguishable in
// shape from a backend's.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, encodeJSON(v))
}

// encodeJSON renders v the way WriteJSON sends it: indented by two
// spaces, with a trailing newline.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	// Every value the protocol sends is encodable; a failure (a bug)
	// leaves the body empty.
	_ = enc.Encode(v)
	return buf.Bytes()
}

// writeBody writes an encodeJSON body with the given status code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status line is already on the wire; a write failure here is a
	// dropped client connection, which has no remaining recourse.
	_, _ = w.Write(body)
}

// WriteErr writes the JSON error body every non-2xx response carries.
func WriteErr(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorResponse{Error: msg})
}
