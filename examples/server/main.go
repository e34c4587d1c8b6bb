// Streaming client for copydetectd: generates the stockfusion workload
// (a scaled Stock-1day with planted copier cliques), streams it into a
// copydetectd instance in batches — the way closing prices would arrive
// over a trading day — and polls the cached read endpoints until the
// service has converged, printing each new detection round as its ETag
// changes.
//
// Run self-hosted (starts an in-process copydetectd):
//
//	go run ./examples/server
//
// or against a daemon you started yourself:
//
//	go run ./cmd/copydetectd -addr :8377 &
//	go run ./examples/server -addr http://localhost:8377
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"copydetect"
	"copydetect/internal/dataset"
	"copydetect/internal/server"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running copydetectd (empty = start one in-process)")
	scale := flag.Float64("scale", 0.05, "stock workload scale factor")
	seed := flag.Int64("seed", 7, "workload generation seed")
	batches := flag.Int("batches", 8, "number of append batches to stream")
	flag.Parse()

	if *addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		reg := server.NewRegistry(server.Config{})
		defer reg.Close()
		go http.Serve(ln, server.NewHandler(reg))
		*addr = "http://" + ln.Addr().String()
		fmt.Printf("started in-process copydetectd at %s\n", *addr)
	}

	// The stockfusion workload: dozens of sources quoting stock
	// attributes, six planted copier cliques.
	cfg := copydetect.ScaleConfig(copydetect.Stock1DayConfig(*seed), *scale)
	ds, planted, err := copydetect.Generate(cfg)
	check(err)
	recs := dataset.Records(ds)
	fmt.Printf("workload: %s\n", copydetect.Summarize(ds))
	fmt.Printf("planted copying pairs: %d\n\n", len(planted.Pairs))

	base := *addr + "/v1/datasets/stock"
	post(http.MethodPut, base, nil)

	// Stream the observations batch by batch, polling between batches so
	// the round progression is visible.
	per := (len(recs) + *batches - 1) / *batches
	etag := ""
	for start := 0; start < len(recs); start += per {
		end := start + per
		if end > len(recs) {
			end = len(recs)
		}
		post(http.MethodPost, base+"/observations", map[string]any{
			"observations": recs[start:end],
		})
		fmt.Printf("appended observations %d–%d\n", start+1, end)
		etag = pollCopies(base, etag)
	}

	// Quiesce: block until every append is covered by a completed round,
	// then read the converged copying pairs.
	post(http.MethodPost, base+"/quiesce", nil)
	var copies struct {
		Round     int  `json:"round"`
		Converged bool `json:"converged"`
		Pairs     []struct {
			Direction string  `json:"direction"`
			PrIndep   float64 `json:"prIndep"`
		} `json:"pairs"`
	}
	get(base+"/copies", "", &copies, nil)
	fmt.Printf("\nconverged after round %d: %d copying pairs (%d planted)\n",
		copies.Round, len(copies.Pairs), len(planted.Pairs))
	for i, pr := range copies.Pairs {
		if i == 10 {
			fmt.Printf("  … %d more\n", len(copies.Pairs)-10)
			break
		}
		fmt.Printf("  %-40s Pr(indep)=%.4f\n", pr.Direction, pr.PrIndep)
	}
}

// pollCopies polls the cached copies endpoint with If-None-Match until
// either a new round is published (ETag changed) or the dataset reports
// convergence, and returns the current ETag. 304 responses show the
// cache at work: reads never block on detection.
func pollCopies(base, etag string) string {
	for i := 0; i < 200; i++ {
		var resp struct {
			Round     int  `json:"round"`
			Converged bool `json:"converged"`
			Pairs     []struct {
				Direction string `json:"direction"`
			} `json:"pairs"`
		}
		newTag, notModified := "", false
		get(base+"/copies", etag, &resp, func(r *http.Response) {
			newTag = r.Header.Get("ETag")
			notModified = r.StatusCode == http.StatusNotModified
		})
		// Round 0 is the pre-detection placeholder, not a published round.
		if !notModified && newTag != etag && resp.Round > 0 {
			fmt.Printf("  round %d published: %d copying pairs\n", resp.Round, len(resp.Pairs))
			return newTag
		}
		if resp.Converged || notModified && i > 20 {
			return etag
		}
		time.Sleep(10 * time.Millisecond)
	}
	return etag
}

func post(method, url string, body any) {
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		check(err)
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	check(err)
	resp, err := http.DefaultClient.Do(req)
	check(err)
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var er struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&er) // best effort: the status alone is reported otherwise
		check(fmt.Errorf("%s %s: %s (%s)", method, url, resp.Status, er.Error))
	}
}

func get(url, etag string, out any, inspect func(*http.Response)) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	check(err)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	check(err)
	defer resp.Body.Close()
	if inspect != nil {
		inspect(resp)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		check(json.NewDecoder(resp.Body).Decode(out))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "example: %v\n", err)
		os.Exit(1)
	}
}
