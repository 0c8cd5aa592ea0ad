// Package models assembles the deep baseline architectures of the paper's
// Table II — LSTM and CNN-LSTM — plus a plain TCN (no fully connected
// layer, no attention) used for the ablation benchmarks. All builders
// return nn.Layer models that consume [batch, channels, window] inputs and
// emit [batch, horizon] forecasts.
package models

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// LSTMConfig configures the LSTM baseline.
type LSTMConfig struct {
	InChannels int
	Hidden     int
	Horizon    int
}

// NewLSTM builds the LSTM baseline: LSTM → Dense(horizon).
func NewLSTM(r *tensor.RNG, cfg LSTMConfig) nn.Layer {
	if cfg.Hidden == 0 {
		cfg.Hidden = 32
	}
	return nn.NewSequential(
		nn.NewLSTM(r, cfg.InChannels, cfg.Hidden),
		nn.NewDense(r, cfg.Hidden, cfg.Horizon),
	)
}

// CNNLSTMConfig configures the CNN-LSTM baseline (Ouhame et al. 2021, the
// paper's reference [29]): a 1-D convolution extracts local features and
// an LSTM models their temporal evolution.
type CNNLSTMConfig struct {
	InChannels   int
	ConvChannels int
	KernelSize   int
	Hidden       int
	Horizon      int
	Dropout      float64
}

// NewCNNLSTM builds Conv1D → ReLU → Dropout → LSTM → Dense(horizon).
func NewCNNLSTM(r *tensor.RNG, cfg CNNLSTMConfig) nn.Layer {
	if cfg.ConvChannels == 0 {
		cfg.ConvChannels = 16
	}
	if cfg.KernelSize == 0 {
		cfg.KernelSize = 3
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 32
	}
	layers := []nn.Layer{
		nn.NewCausalConv1D(r, cfg.InChannels, cfg.ConvChannels, cfg.KernelSize, 1, false),
		&nn.ReLU{},
	}
	if cfg.Dropout > 0 {
		layers = append(layers, nn.NewSpatialDropout1D(r, cfg.Dropout))
	}
	layers = append(layers,
		nn.NewLSTM(r, cfg.ConvChannels, cfg.Hidden),
		nn.NewDense(r, cfg.Hidden, cfg.Horizon),
	)
	return nn.NewSequential(layers...)
}

// TCNConfig configures the plain TCN ablation model.
type TCNConfig struct {
	InChannels int
	Channels   []int
	KernelSize int
	Dilations  []int
	Dropout    float64
	WeightNorm bool
	Horizon    int
}

// NewPlainTCN builds TCN → LastStep → Dense(horizon): the architecture of
// Bai et al. without RPTCN's fully connected layer and attention head.
func NewPlainTCN(r *tensor.RNG, cfg TCNConfig) nn.Layer {
	if len(cfg.Channels) == 0 {
		cfg.Channels = []int{16, 16, 16}
	}
	if cfg.KernelSize == 0 {
		cfg.KernelSize = 3
	}
	tcn := nn.NewTCN(r, nn.TCNConfig{
		InChannels: cfg.InChannels,
		Channels:   cfg.Channels,
		KernelSize: cfg.KernelSize,
		Dilations:  cfg.Dilations,
		Dropout:    cfg.Dropout,
		WeightNorm: cfg.WeightNorm,
	})
	last := cfg.Channels[len(cfg.Channels)-1]
	return nn.NewSequential(tcn, &nn.LastStep{}, nn.NewDense(r, last, cfg.Horizon))
}
