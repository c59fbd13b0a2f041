#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # llmpilot-serve
//!
//! The online half of LLM-Pilot as a long-running service: a
//! multi-threaded GPU-recommendation daemon over the characterization
//! dataset. Where the offline binaries answer one query and exit, this
//! crate keeps a trained [`llmpilot_core::ServingModel`] resident, serves
//! `GET /recommend` queries from a worker pool with an LRU response
//! cache, hot-reloads the dataset (via `POST /reload` or an mtime
//! watcher) with atomic `Arc` swaps, retrains the predictor in the
//! background on dataset change, applies admission control under
//! overload (`503` + `Retry-After`), and exposes Prometheus metrics on
//! `GET /metrics`.
//!
//! The build environment is fully offline, so the HTTP layer ([`http`])
//! is hand-rolled on `std::net` — no tokio/hyper — with hard limits on
//! request sizes.
//!
//! ```text
//! GET  /recommend?model=Llama-2-13b&users=200&ttft=100&itl=50
//! POST /reload
//! GET  /metrics
//! GET  /healthz
//! ```

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod store;

pub use cache::LruCache;
pub use client::{http_request, ClientResponse, HttpClient};
pub use http::{parse_request, Limits, ParseError, Request, Response};
pub use registry::{ModelRegistry, TrainedModel};
pub use server::{ServeConfig, ServeError, Server, ServerHandle};
pub use store::{DatasetStore, ReloadOutcome};
