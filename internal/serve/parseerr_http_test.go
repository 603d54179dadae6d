package serve

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestSpecUpload4xxBodies pins the JSON wire shape of rejected spec
// uploads end to end: a broken spec POSTed to /v1/specs comes back as
// a 400 whose body carries the message, line, column, and offending
// token — everything an editor needs to point at the mistake.
func TestSpecUpload4xxBodies(t *testing.T) {
	srv, _, addr := startServer(t, Config{Shards: 2})
	defer srv.Drain()
	cases := []struct {
		name string
		src  string
		body map[string]any
	}{
		{
			name: "dep expression error",
			src:  "dep a + +\n",
			body: map[string]any{
				"error": `algebra: parse error at offset 4: unexpected "+"`,
				"line":  1.0, "col": 9.0, "token": "+",
			},
		},
		{
			name: "unknown event option",
			src:  "dep ok: a + b\nevent c_buy site=s0 explosive\n",
			body: map[string]any{
				"error": `unknown event option "explosive"`,
				"line":  2.0, "col": 21.0, "token": "explosive", "event": "c_buy",
			},
		},
		{
			name: "bad step option under indentation",
			src:  "dep a + b\nagent w site=s0\n  step a slowly\n",
			body: map[string]any{
				"error": `unknown step option "slowly"`,
				"line":  3.0, "col": 10.0, "token": "slowly", "event": "a",
			},
		},
		{
			name: "whole-file error omits position fields",
			src:  "# only a comment\n",
			body: map[string]any{"error": "no dependencies"},
		},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, raw := httpJSON(t, "POST",
				fmt.Sprintf("http://%s/v1/specs?name=bad%d", addr, i),
				[]byte(c.src), nil)
			if status != 400 {
				t.Fatalf("status = %d, want 400 (%s)", status, raw)
			}
			var got map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("bad JSON %q: %v", raw, err)
			}
			for k, want := range c.body {
				if got[k] != want {
					t.Errorf("body[%q] = %v, want %v (%s)", k, got[k], want, raw)
				}
			}
			// omitempty: position fields absent when unanchored.
			for _, k := range []string{"line", "col", "token", "event"} {
				if _, expected := c.body[k]; !expected {
					if v, present := got[k]; present {
						t.Errorf("body[%q] = %v, want omitted (%s)", k, v, raw)
					}
				}
			}
		})
	}
}
