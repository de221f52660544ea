//! # tqt-graph
//!
//! A Graffitist-style graph framework (the paper's Section 4): a layer
//! dataflow IR with pattern-matching transforms and automatic quantization
//! passes.
//!
//! * [`ir`] — the graph, node, and threshold-side-table representation.
//!   Quantizer thresholds live in a side table so several quant ops can
//!   share one scale (the paper's merged `q'` scales for concat,
//!   eltwise-add and bias).
//! * [`exec`] — topological forward/backward execution and on-the-fly
//!   topological calibration.
//! * [`shape`] — symbolic shape inference: the one per-op shape rule,
//!   shared with the `tqt-verify` shape pass.
//! * [`transforms`] — batch-norm folding, identity splicing,
//!   concat-of-concat collapsing, avgpool → depthwise conversion.
//! * [`quantize`] — the automatic quantization pass implementing the
//!   layer-precision topologies of Section 4.3 in static or retrain mode.
//! * [`state`] — weight checkpointing (save/load state dicts).
//! * [`fplan`] / [`fexec`] — the planned float training path: a
//!   liveness-planned slot assignment over the forward+backward tape and
//!   the allocation-free executor that runs it, bit-identical to [`exec`].

pub mod exec;
pub mod fexec;
pub mod fplan;
pub mod ir;
pub mod quantize;
pub mod shape;
pub mod state;
pub mod transforms;

pub use fexec::{
    build_arena, flush_arena, sync_thresholds_from_arena, sync_thresholds_to_arena, FloatExecutor,
};
pub use fplan::{FloatPlan, ValueKind};
pub use ir::{Graph, Node, NodeId, Op, ThresholdId, ThresholdMode, ThresholdState, WeightQuant};
pub use quantize::{quantize_graph, QuantizeOptions, WeightBits};
