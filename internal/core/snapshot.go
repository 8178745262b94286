package core

import (
	"encoding/json"
	"fmt"

	"github.com/smartdpss/smartdpss/internal/jsonenc"
	"github.com/smartdpss/smartdpss/internal/sim"
)

// controllerState is the SmartDPSS controller's mutable state in
// checkpoint form: the virtual-queue freeze Θ(t), the delay queue Y, the
// trailing-mean estimators (demand/renewable and real-time price), the
// frozen demand envelope and the LP fallback counter. The slot-loop
// scratch buffers are deliberately absent — they carry no information
// across slots. Configuration (Params) is pinned by the session
// checkpoint's config hash.
type controllerState struct {
	QT float64 `json:"qT"`
	YT float64 `json:"yT"`
	XT float64 `json:"xT"`

	DelayY float64                `json:"delayY"`
	Est    sim.TrailingMeansState `json:"est"`

	PrtSum   float64 `json:"prtSum"`
	PrtN     int     `json:"prtN"`
	PrtMean  float64 `json:"prtMean"`
	PrtReady bool    `json:"prtReady"`

	EnvDDS float64 `json:"envDDS"`
	EnvDDT float64 `json:"envDDT"`
	EnvRen float64 `json:"envRen"`

	LPFailures int `json:"lpFailures"`
}

var _ sim.Snapshotter = (*Controller)(nil)

// state captures everything the controller carries across fine slots,
// so a restored controller plans bit-identically to one that never
// stopped.
func (c *Controller) state() controllerState {
	return controllerState{
		QT:         c.qT,
		YT:         c.yT,
		XT:         c.xT,
		DelayY:     c.delay.Value(),
		Est:        c.est.State(),
		PrtSum:     c.prtSum,
		PrtN:       c.prtN,
		PrtMean:    c.prtMean,
		PrtReady:   c.prtReady,
		EnvDDS:     c.envDDS,
		EnvDDT:     c.envDDT,
		EnvRen:     c.envRen,
		LPFailures: c.lpFailures,
	}
}

// AppendState implements sim.Snapshotter.
func (c *Controller) AppendState(dst []byte) ([]byte, error) {
	e := jsonenc.NewEncoder(dst)
	s := c.state()
	s.appendJSON(&e)
	return e.Bytes()
}

// appendJSON appends s as json.Marshal encodes it.
func (s *controllerState) appendJSON(e *jsonenc.Encoder) {
	e.Open()
	e.Key("qT").Float(s.QT)
	e.Key("yT").Float(s.YT)
	e.Key("xT").Float(s.XT)
	e.Key("delayY").Float(s.DelayY)
	s.Est.AppendJSON(e.Key("est"))
	e.Key("prtSum").Float(s.PrtSum)
	e.Key("prtN").Int(s.PrtN)
	e.Key("prtMean").Float(s.PrtMean)
	e.Key("prtReady").Bool(s.PrtReady)
	e.Key("envDDS").Float(s.EnvDDS)
	e.Key("envDDT").Float(s.EnvDDT)
	e.Key("envRen").Float(s.EnvRen)
	e.Key("lpFailures").Int(s.LPFailures)
	e.Close()
}

// RestoreState implements sim.Snapshotter. It decodes the whole state
// before assigning any of it.
func (c *Controller) RestoreState(data []byte) error {
	var s controllerState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("core: decode controller state: %w", err)
	}
	c.qT, c.yT, c.xT = s.QT, s.YT, s.XT
	c.delay.Restore(s.DelayY)
	c.est.Restore(s.Est)
	c.prtSum, c.prtN = s.PrtSum, s.PrtN
	c.prtMean, c.prtReady = s.PrtMean, s.PrtReady
	c.envDDS, c.envDDT, c.envRen = s.EnvDDS, s.EnvDDT, s.EnvRen
	c.lpFailures = s.LPFailures
	return nil
}
