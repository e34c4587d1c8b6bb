package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"copydetect/internal/dataset"
)

// appendBodies are request bodies around the edge of what
// dataset.ScanAppendBody answers itself (the dataset package's own tests
// cover the scanner's grammar; these are about the handler's choice).
var appendBodies = []string{
	`{"observations":[{"s":"a","d":"x","v":"1"},{"s":"b","d":"x","v":"2"}],"truth":[{"d":"x","v":"1"}]}`,
	"{ \"truth\" : [ { \"v\" : \"1\" , \"d\" : \"x\" } ] ,\n\t\"observations\" : [ ] }",
	`{"observations":[{"s":"tab\there","d":"quote\"back\\slash\/","v":"é世😀\ud83d"}]}`,
	"{\"observations\":[{\"s\":\"\xff\xfe\",\"d\":\"\xc3\x28\",\"v\":\"ok\"}]}",
	"{\"observations\":[{\"s\":\"raw\x01control\",\"d\":\"x\",\"v\":\"1\"}]}",
	`{"observations":[{"s":"bad \x escape","d":"x","v":"1"}]}`,
	`{"Observations":[{"S":"a","D":"x","V":"1"}]}`,
	`{"observations":[{"s":"a","d":"x","v":"1","w":"unknown"}],"extra":{"nested":[1,{"a":null}]}}`,
	`{"observations":[{"s":"a","s":"b","d":"x","v":"1"}]}`,
	`{"observations":[],"observations":[{"s":"a","d":"x","v":"1"}]}`,
	`{"observations":null,"truth":[{"d":"x","v":"1"}]}`, `{"observations":[null]}`,
	`{"observations":[{"s":null,"d":"x","v":"1"}]}`, `{"observations":[{"s":1,"d":"x","v":"1"}]}`,
	`{"observations":{"s":"a"}}`, `[{"s":"a"}]`, `null`, `{}`, ``, ` `, `{`, `{"observations":[{"s":"a"},]}`,
	`{"observations":[{"s":"a","d":"x","v":"1"}]} trailing garbage`,
	`{"observations":[{"s":"a","d":"x","v":"1"}]}{"observations":[{"s":"b","d":"y","v":"2"}]}`,
	"\xef\xbb\xbf{}",
}

// checkAppendBody is the differential check: whatever ScanAppendBody
// answers itself, the encoding/json decoding of appendRequest must accept
// and turn into the same records.
func checkAppendBody(t *testing.T, body string) {
	t.Helper()
	obs, truth, ok := dataset.ScanAppendBody(body)
	if !ok {
		return
	}
	var want appendRequest
	if err := decodeJSON(strings.NewReader(body), &want); err != nil {
		t.Fatalf("%q: the scanner accepts what encoding/json rejects: %v", body, err)
	}
	for _, side := range []struct {
		name      string
		got, want []dataset.Record
	}{{"observations", obs, want.Observations}, {"truth", truth, want.Truth}} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%q: %d %s, encoding/json gives %d", body, len(side.got), side.name, len(side.want))
		}
		for i := range side.got {
			if side.got[i] != side.want[i] {
				t.Fatalf("%q: %s[%d] = %q, encoding/json gives %q", body, side.name, i, side.got[i], side.want[i])
			}
		}
	}
}

// FuzzAppendBody: the append body crosses the network, and two decoders
// now read it. Whichever the input selects, the handler must accept
// exactly what encoding/json alone accepted, with the same records.
func FuzzAppendBody(f *testing.F) {
	for _, body := range appendBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAppendBody(t, string(body))
	})
}

// TestDecodeAppendMatchesEncodingJSON drives decodeAppend itself — the
// read, the scan, the hand-over of the bytes read to encoding/json — on
// every case, against the one-line decode the handler used to do.
func TestDecodeAppendMatchesEncodingJSON(t *testing.T) {
	for _, body := range appendBodies {
		checkAppendBody(t, body)
		var want appendRequest
		wantErr := decodeJSON(strings.NewReader(body), &want)
		got, err := decodeAppend(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%q: error %v, encoding/json alone gives %v", body, err, wantErr)
			continue
		}
		if err == nil && (fmt.Sprintf("%q", got.Observations) != fmt.Sprintf("%q", want.Observations) ||
			fmt.Sprintf("%q", got.Truth) != fmt.Sprintf("%q", want.Truth)) {
			t.Errorf("%q: decoded to %q, encoding/json alone gives %q", body, got, want)
		}
	}
}

// TestDecodeAppendOverLimit: the size cap keeps meaning what it meant to
// the streaming decoder. A value that does not end within the limit is a
// *http.MaxBytesError (413) on either path; one that ends within it is
// accepted however much follows, because nothing ever read that far.
func TestDecodeAppendOverLimit(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 64
	defer func() { maxBodyBytes = old }()
	small := `{"observations":[{"s":"a","d":"x","v":"1"}]}`
	for name, tc := range map[string]struct {
		body    string
		tooBig  bool
		records int
	}{
		"canonical, value over the limit":     {`{"observations":[{"s":"a","d":"x","v":"` + strings.Repeat("v", 64) + `"}]}`, true, 0},
		"delegated, value over the limit":     {`{"Observations":[{"s":"a","d":"x","v":"` + strings.Repeat("v", 64) + `"}]}`, true, 0},
		"canonical, only the tail over it":    {small + strings.Repeat(" ", 64), false, 1},
		"delegated, only the tail over it":    {strings.Replace(small, "obs", "Obs", 1) + strings.Repeat(" ", 64), false, 1},
		"canonical, Content-Length a lie":     {small, false, 1},
		"delegated, syntax error then excess": {`{"observations":[{"s":oops` + strings.Repeat(" ", 64), false, -1},
	} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		if strings.Contains(name, "a lie") {
			req.ContentLength = 1 << 40
		}
		got, err := decodeAppend(httptest.NewRecorder(), req)
		var want appendRequest
		wantErr := decodeBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body)), &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, the streaming decoder alone gives %v", name, err, wantErr)
		}
		rec := httptest.NewRecorder()
		if err != nil {
			writeDecodeErr(rec, err)
		}
		if tooBig := rec.Code == http.StatusRequestEntityTooLarge; tooBig != tc.tooBig {
			t.Errorf("%s: error %v (status %d), want 413: %v", name, err, rec.Code, tc.tooBig)
		}
		if tc.records >= 0 && len(got.Observations) != tc.records {
			t.Errorf("%s: %d observations, want %d", name, len(got.Observations), tc.records)
		}
	}
}
