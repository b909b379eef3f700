//! # viz — minimal SVG charts
//!
//! A small, dependency-free SVG renderer for the two chart shapes the
//! paper's figures need: multi-series line charts (Figs. 2, 3, 7) and
//! grouped bar charts with a baseline rule (Fig. 6, Table VIII). Not a
//! plotting library — just enough to turn the experiments' numbers
//! into reviewable artifacts.

pub mod chart;
pub mod scale;
pub mod svg;

pub use chart::{BarChart, BarGroup, LineChart, Series};
pub use scale::{nice_ticks, Scale};
