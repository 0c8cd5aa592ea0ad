package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// paramDump is the on-disk form of one parameter tensor.
type paramDump struct {
	Name  string    `json:"name"`
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

type modelDump struct {
	Format int         `json:"format"`
	Params []paramDump `json:"params"`
}

// currentFormat is bumped on incompatible serialization changes.
const currentFormat = 1

// SaveParams writes every trainable parameter of the model to w as JSON.
// Architecture is NOT serialized: to load, rebuild the same model shape
// and call LoadParams.
func SaveParams(w io.Writer, m Layer) error {
	dump := modelDump{Format: currentFormat}
	for _, p := range m.Params() {
		dump.Params = append(dump.Params, paramDump{
			Name:  p.Name,
			Shape: p.Value.Shape(),
			Data:  p.Value.Data,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dump)
}

// LoadParams restores parameters saved by SaveParams into a model with the
// identical architecture (same parameter order, names and shapes).
func LoadParams(r io.Reader, m Layer) error {
	var dump modelDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return fmt.Errorf("nn: decoding params: %w", err)
	}
	if dump.Format != currentFormat {
		return fmt.Errorf("nn: unsupported params format %d (want %d)", dump.Format, currentFormat)
	}
	params := m.Params()
	if len(params) != len(dump.Params) {
		return fmt.Errorf("nn: model has %d params, file has %d", len(params), len(dump.Params))
	}
	Unfreeze(m) // weights change below, some of them even if an error cuts the load short
	for i, p := range params {
		d := dump.Params[i]
		if p.Name != d.Name {
			return fmt.Errorf("nn: param %d name mismatch: model %q, file %q", i, p.Name, d.Name)
		}
		if !sameShape(p.Value.Shape(), d.Shape) {
			return fmt.Errorf("nn: param %q shape mismatch: model %v, file %v", p.Name, p.Value.Shape(), d.Shape)
		}
		if len(d.Data) != p.Value.Size() {
			return fmt.Errorf("nn: param %q data length %d, want %d", p.Name, len(d.Data), p.Value.Size())
		}
		copy(p.Value.Data, d.Data)
	}
	return nil
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
