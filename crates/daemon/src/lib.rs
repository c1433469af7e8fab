//! # intune-daemon
//!
//! The long-running selection daemon: the deployment phase of the paper
//! as a network service.
//!
//! PR 3 drew the train/deploy boundary (a persisted, checksummed
//! [`intune_serve::ModelArtifact`]); this crate puts a server in front of
//! it. A [`Daemon`] loads an artifact, listens on TCP (plus a Unix-domain
//! socket on unix), and speaks **`intune-wire/3`** — a binary-header
//! framed protocol carrying one compact JSON message per frame, with the
//! payload checksum in the header so neither side re-serializes to
//! verify (see [`protocol`] and `crates/daemon/README.md` for the frame
//! layout). It still serves `intune-wire/2` clients, answering each
//! frame in the version it arrived in. Clients ship fully-extracted
//! feature vectors; the daemon answers landmark selections computed by a
//! benchmark-free [`intune_serve::VectorService`] — bit-identical to
//! in-process selection, which `table1 --daemon` + CI prove end to end.
//! The primary service sits behind a lock-free pointer, so selection
//! reads are wait-free and a promotion (or a crashed handler) can never
//! stall or poison them.
//!
//! Model lifecycle over the wire:
//!
//! * `LoadArtifact` **hot-stages** a candidate artifact (any readable
//!   schema version — version-1 documents migrate on load) as the
//!   **shadow**;
//! * every `SelectBatch` is answered by the primary and **mirrored** to
//!   the shadow, building per-landmark agreement counters;
//! * `Promote` swaps the shadow in behind a [`ShadowPolicy`] gate
//!   (minimum mirrored traffic, minimum agreement, untripped drift);
//! * a shadow whose own drift monitor trips is **auto-rejected** — it
//!   never answers a client.
//!
//! ```no_run
//! use intune_daemon::{Daemon, DaemonClient, DaemonOptions, ListenConfig};
//! use intune_serve::ModelArtifact;
//!
//! let artifact = ModelArtifact::load(std::path::Path::new("sort2.model.json"))?;
//! let daemon = Daemon::bind(artifact, DaemonOptions::default(), &ListenConfig::default())?;
//! let addr = daemon.tcp_addr();
//! let handle = daemon.spawn();
//!
//! let client = DaemonClient::connect(&addr.to_string())?;
//! println!("serving {} at revision {}", client.info().benchmark, client.info().revision);
//! client.shutdown()?;
//! handle.join()?;
//! # intune_core::Result::Ok(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod shadow;

pub use client::{DaemonClient, ServerInfo};
pub use protocol::{
    DaemonStats, Fill, FrameReader, LandmarkAgreement, MetricsSnapshot, Request, Response,
    ShadowStats, StageTimings, TenantMetrics, MAX_FRAME_BYTES, WIRE_VERSION,
};
pub use registry::TenantSpec;
pub use server::{Daemon, DaemonHandle, DaemonOptions, ListenConfig, SERVER_NAME};
pub use shadow::ShadowPolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{ConfigSpace, FeatureDef, FeatureId, FeatureSample, FeatureVector};
    use intune_learning::classifiers::Classifier;
    use intune_ml::{DecisionTree, TreeOptions, ZScore};
    use intune_serve::{ModelArtifact, ServeOptions};

    /// A small hand-built artifact (no training pipeline needed): a
    /// 2-landmark tree model over one 2-level property plus a 1-level
    /// property, routing feature `a@1 < 5` to landmark 0, else 1.
    fn artifact(revision: u64) -> ModelArtifact {
        let space = ConfigSpace::builder().switch("alg", 2).build();
        let defs = vec![FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64, (i * 2) as f64, 1.0])
            .collect();
        let tree_rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..8).map(|i| usize::from(i >= 4)).collect();
        let landmarks: Vec<_> = (0..2)
            .map(|c| {
                let mut cfg = space.default_config();
                cfg.set(0, intune_core::ParamValue::Choice(c));
                cfg
            })
            .collect();
        ModelArtifact {
            benchmark: "daemon-test".to_string(),
            feature_defs: defs,
            normalizer: ZScore::fit(&rows),
            landmarks,
            classifier: Classifier::Tree {
                set: intune_core::FeatureSet::from_choices(vec![Some(1), None]),
                tree: DecisionTree::fit_plain(&tree_rows, &labels, 2, TreeOptions::default()),
            },
            centroids: vec![vec![0.0; 3], vec![1.0; 3]],
            dispersion: vec![2.0, 2.0],
            fallback: 0,
            accuracy_threshold: None,
            revision,
            trained_inputs: 8,
        }
    }

    /// A fully-extracted vector whose `a@1` value is `x`.
    fn vector(x: f64) -> FeatureVector {
        let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let mut fv = FeatureVector::empty(&defs);
        fv.insert(
            FeatureId {
                property: 0,
                level: 0,
            },
            FeatureSample::new(x / 2.0, 0.5),
        )
        .unwrap();
        fv.insert(
            FeatureId {
                property: 0,
                level: 1,
            },
            FeatureSample::new(x, 1.0),
        )
        .unwrap();
        fv.insert(
            FeatureId {
                property: 1,
                level: 0,
            },
            FeatureSample::new(1.0, 0.25),
        )
        .unwrap();
        fv
    }

    fn start(opts: DaemonOptions) -> (DaemonHandle, DaemonClient) {
        spawn_connected(Daemon::bind(artifact(1), opts, &ListenConfig::default()).unwrap())
    }

    /// Spawns a bound daemon and connects one client to it.
    fn spawn_connected(daemon: Daemon) -> (DaemonHandle, DaemonClient) {
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();
        let client = DaemonClient::connect(&addr).unwrap();
        (handle, client)
    }

    /// The test artifact as the sole tenant, with a request journal
    /// and/or a wire-traffic recorder attached.
    fn logged(
        trace: Option<std::sync::Arc<dyn intune_serve::TraceSink>>,
        recorder: Option<std::sync::Arc<intune_datalog::RecorderSink>>,
    ) -> Vec<TenantSpec> {
        vec![TenantSpec {
            artifact: artifact(1),
            trace,
            recorder,
            trace_sample: None,
        }]
    }

    /// The test artifact under a different benchmark name — a second
    /// tenant for the same daemon.
    fn named_artifact(benchmark: &str, revision: u64) -> ModelArtifact {
        let mut a = artifact(revision);
        a.benchmark = benchmark.to_string();
        a
    }

    /// A two-tenant daemon (`alpha` + `beta`, same model shape).
    fn start_tenants(opts: DaemonOptions) -> (DaemonHandle, String) {
        let specs = vec![
            TenantSpec {
                artifact: named_artifact("alpha", 1),
                trace: None,
                recorder: None,
                trace_sample: None,
            },
            TenantSpec {
                artifact: named_artifact("beta", 1),
                trace: None,
                recorder: None,
                trace_sample: None,
            },
        ];
        let daemon = Daemon::bind_tenants(specs, opts, &ListenConfig::default()).unwrap();
        let addr = daemon.tcp_addr().to_string();
        (daemon.spawn(), addr)
    }

    #[test]
    fn unknown_benchmark_hello_is_refused_and_the_connection_survives() {
        let (handle, addr) = start_tenants(DaemonOptions::default());
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = protocol::FrameReader::new();

        // A benchmark nobody serves: typed error naming the tenants.
        protocol::send(
            &mut raw,
            &Request::Hello {
                client: "test".to_string(),
                benchmark: "gamma".to_string(),
            },
        )
        .unwrap();
        let reply = reader.recv::<_, Response>(&mut raw).unwrap().unwrap();
        let Response::Error { detail } = reply else {
            panic!("expected a typed refusal, got {reply:?}");
        };
        assert!(detail.contains("unknown benchmark `gamma`"), "{detail}");
        assert!(
            detail.contains("alpha") && detail.contains("beta"),
            "{detail}"
        );

        // The wire/2 single-tenant shorthand (empty name) is ambiguous
        // here — also a typed error, also survivable.
        protocol::send(
            &mut raw,
            &Request::Hello {
                client: "test".to_string(),
                benchmark: String::new(),
            },
        )
        .unwrap();
        let reply = reader.recv::<_, Response>(&mut raw).unwrap().unwrap();
        let Response::Error { detail } = reply else {
            panic!("expected a typed refusal, got {reply:?}");
        };
        assert!(detail.contains("several"), "{detail}");

        // Third Hello on the *same connection* binds and serves.
        protocol::send(
            &mut raw,
            &Request::Hello {
                client: "test".to_string(),
                benchmark: "beta".to_string(),
            },
        )
        .unwrap();
        let reply = reader.recv::<_, Response>(&mut raw).unwrap().unwrap();
        assert!(
            matches!(reply, Response::HelloAck { ref benchmark, .. } if benchmark == "beta"),
            "{reply:?}"
        );
        protocol::send(
            &mut raw,
            &Request::SelectBatch {
                features: vec![vector(7.0)],
                trace: None,
            },
        )
        .unwrap();
        let reply = reader.recv::<_, Response>(&mut raw).unwrap().unwrap();
        assert!(
            matches!(reply, Response::Selections { ref selections } if selections.len() == 1),
            "{reply:?}"
        );

        // The typed client surfaces the same refusal as an `Err`.
        match DaemonClient::connect_to(&addr, "gamma") {
            Err(err) => assert!(err.to_string().contains("unknown benchmark"), "{err}"),
            Ok(_) => panic!("connecting to an unknown tenant must fail"),
        }

        DaemonClient::connect_to(&addr, "alpha")
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn tenants_stage_and_promote_independently() {
        let opts = DaemonOptions {
            shadow: ShadowPolicy {
                min_mirrored: 4,
                min_agreement: 0.99,
            },
            ..DaemonOptions::default()
        };
        let (handle, addr) = start_tenants(opts);
        let alpha = DaemonClient::connect_to(&addr, "alpha").unwrap();
        let beta = DaemonClient::connect_to(&addr, "beta").unwrap();
        assert_eq!(alpha.info().benchmark, "alpha");
        assert_eq!(beta.info().benchmark, "beta");

        // Stage + mirror + promote on alpha; beta serves plain traffic.
        alpha.load_artifact(&named_artifact("alpha", 2)).unwrap();
        let batch: Vec<FeatureVector> = (0..4).map(|i| vector(i as f64)).collect();
        alpha.select_batch(&batch).unwrap();
        beta.select_batch(&batch).unwrap();
        assert_eq!(alpha.promote().unwrap(), 2);

        let a = alpha.stats().unwrap();
        assert_eq!(a.benchmark, "alpha");
        assert_eq!(a.revision, 2);
        assert_eq!(a.promotions, 1);
        assert_eq!(a.tenants, 2);

        // Beta never saw any of it: revision 1, no shadow, its own
        // serving counters.
        let b = beta.stats().unwrap();
        assert_eq!(b.benchmark, "beta");
        assert_eq!(b.revision, 1);
        assert_eq!(b.promotions, 0);
        assert!(b.shadow.is_none());
        assert_eq!(b.primary.requests, 4);
        let err = beta.promote().unwrap_err();
        assert!(err.to_string().contains("no shadow"), "{err}");

        // Cross-tenant staging is refused: an artifact trained for beta
        // cannot shadow alpha.
        let err = alpha.load_artifact(&named_artifact("beta", 3)).unwrap_err();
        assert!(err.to_string().contains("beta"), "{err}");

        alpha.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn slow_reader_hitting_the_outbound_cap_gets_a_typed_error_then_fin() {
        let opts = DaemonOptions {
            max_outbound_bytes: 4096,
            ..DaemonOptions::default()
        };
        let (handle, client) = start(opts);

        // A reader that stops draining: pipeline requests whose replies
        // must overflow the 4 KiB outbound cap, and read nothing.
        let mut slow = std::net::TcpStream::connect(handle.addr.to_string()).unwrap();
        let big: Vec<FeatureVector> = (0..256).map(|i| vector(i as f64)).collect();
        let body = protocol::encode_select_batch(&big);
        for _ in 0..4 {
            protocol::write_frame(&mut slow, &body).unwrap();
        }

        // The daemon must not buffer past the cap: the slow reader gets
        // any replies that fit, then the typed overflow notice, then an
        // orderly end of stream — never a reset.
        let mut reader = protocol::FrameReader::new();
        let mut saw_overflow = false;
        loop {
            match reader.recv::<_, Response>(&mut slow) {
                Ok(Some(Response::Selections { .. })) => {
                    assert!(!saw_overflow, "no replies after the disconnect notice");
                }
                Ok(Some(Response::Error { detail })) => {
                    assert!(detail.contains("overflow"), "{detail}");
                    saw_overflow = true;
                }
                Ok(Some(other)) => panic!("unexpected reply: {other:?}"),
                Ok(None) => break,
                Err(e) => panic!("slow reader saw a reset, not a FIN: {e}"),
            }
        }
        assert!(saw_overflow, "overflow must be announced before the close");
        drop(slow);

        // The disconnect cost the slow reader and nobody else.
        let ok = client.select_batch(&[vector(1.0)]).unwrap();
        assert_eq!(ok.len(), 1);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// Reads one whole frame, header included, off a blocking stream.
    fn read_raw_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
        use std::io::Read as _;
        let mut frame = vec![0; protocol::HEADER_BYTES];
        stream.read_exact(&mut frame).unwrap();
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        frame.resize(protocol::HEADER_BYTES + len, 0);
        stream
            .read_exact(&mut frame[protocol::HEADER_BYTES..])
            .unwrap();
        frame
    }

    #[test]
    fn each_reply_comes_back_in_its_request_wire_version() {
        use std::io::Write as _;
        let (handle, client) = start(DaemonOptions::default());
        let mut raw = std::net::TcpStream::connect(handle.addr.to_string()).unwrap();
        let hello = protocol::encode_message(&Request::Hello {
            client: "mixed".to_string(),
            benchmark: String::new(),
        });
        let batch: Vec<FeatureVector> = (0..6).map(|i| vector(i as f64 * 1.5)).collect();
        let select = protocol::encode_select_batch(&batch);
        let mut selections = None;
        for (i, version) in [2u8, 3, 2, 2, 3, 3, 2].into_iter().enumerate() {
            let request = if i == 0 { &hello } else { &select };
            raw.write_all(&protocol::encode_frame_in(version, request).unwrap())
                .unwrap();
            let reply = read_raw_frame(&mut raw);
            let payload = std::str::from_utf8(&reply[protocol::HEADER_BYTES..]).unwrap();
            assert_eq!(reply[4], version, "frame {i}");
            assert_eq!(
                reply,
                protocol::encode_frame_in(version, payload).unwrap(),
                "frame {i} is framed as its version frames it"
            );
            let response: Response = protocol::decode_message(payload).unwrap();
            if i == 0 {
                assert!(
                    matches!(response, Response::HelloAck { .. }),
                    "{response:?}"
                );
                continue;
            }
            // The payload does not depend on the version.
            let Response::Selections { .. } = response else {
                panic!("expected selections, got {response:?}");
            };
            assert_eq!(
                selections.get_or_insert_with(|| payload.to_string()),
                payload
            );
        }
        let want = Response::Selections {
            selections: client.select_batch(&batch).unwrap(),
        };
        assert_eq!(selections.unwrap(), protocol::encode_message(&want));

        // A wire/2 byte over a wire/3 checksum: the typed checksum
        // refusal, in wire/2, then an orderly close.
        let mut forged = protocol::encode_frame_in(3, &select).unwrap();
        forged[4] = 2;
        raw.write_all(&forged).unwrap();
        let reply = read_raw_frame(&mut raw);
        assert_eq!(reply[4], 2);
        let payload = std::str::from_utf8(&reply[protocol::HEADER_BYTES..]).unwrap();
        match protocol::decode_message::<Response>(payload).unwrap() {
            Response::Error { detail } => assert!(detail.contains("checksum"), "{detail}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        let mut reader = protocol::FrameReader::new();
        assert!(matches!(reader.recv::<_, Response>(&mut raw), Ok(None)));

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_stalled_partial_frame_holds_up_no_other_connection() {
        use std::io::{Read as _, Write as _};
        let (handle, client) = start(DaemonOptions::default());
        let addr = handle.addr.to_string();
        let batch: Vec<FeatureVector> = (0..4).map(|i| vector(i as f64 * 2.5)).collect();
        let frame = protocol::encode_frame(&protocol::encode_select_batch(&batch)).unwrap();
        let half = protocol::HEADER_BYTES + (frame.len() - protocol::HEADER_BYTES) / 2;

        // A slow loris: bound, then a wire/3 header and half its payload.
        let mut loris = std::net::TcpStream::connect(&addr).unwrap();
        let mut loris_reader = protocol::FrameReader::new();
        protocol::send(
            &mut loris,
            &Request::Hello {
                client: "loris".to_string(),
                benchmark: String::new(),
            },
        )
        .unwrap();
        let reply = loris_reader.recv::<_, Response>(&mut loris).unwrap();
        assert!(
            matches!(reply, Some(Response::HelloAck { .. })),
            "{reply:?}"
        );
        loris.write_all(&frame[..half]).unwrap();

        // Another connection is answered while the loris stalls.
        let answered = client.select_batch(&batch).unwrap();
        assert_eq!(answered.len(), 4);

        // A third connection closes its side mid-frame: it is told why,
        // then closed; a blocking read sees both, in order.
        let mut quitter = std::net::TcpStream::connect(&addr).unwrap();
        quitter.write_all(&frame[..half]).unwrap();
        quitter.shutdown(std::net::Shutdown::Write).unwrap();
        let mut quitter_reader = protocol::FrameReader::new();
        match quitter_reader.recv::<_, Response>(&mut quitter) {
            Ok(Some(Response::Error { detail })) => {
                assert!(detail.contains("mid-frame"), "{detail}")
            }
            other => panic!("expected a typed mid-frame error, got {other:?}"),
        }
        assert!(matches!(
            quitter_reader.recv::<_, Response>(&mut quitter),
            Ok(None)
        ));
        drop(quitter);

        // Nothing was sent to the loris for its half frame; completing it
        // gets the answer the other connection got.
        loris.set_nonblocking(true).unwrap();
        let err = loris.read(&mut [0; 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        loris.set_nonblocking(false).unwrap();
        loris.write_all(&frame[half..]).unwrap();
        let reply = loris_reader.recv::<_, Response>(&mut loris).unwrap();
        assert_eq!(
            reply,
            Some(Response::Selections {
                selections: answered.clone()
            })
        );

        // Both survivors are still served.
        loris.write_all(&frame).unwrap();
        let reply = loris_reader.recv::<_, Response>(&mut loris).unwrap();
        assert!(
            matches!(reply, Some(Response::Selections { .. })),
            "{reply:?}"
        );
        assert_eq!(client.select_batch(&batch).unwrap(), answered);
        let stats = client.stats().unwrap();
        assert_eq!(stats.connections, 3);
        assert_eq!(stats.primary.requests, 16);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_sends_fin_not_rst_to_bystander_connections() {
        let (handle, client) = start(DaemonOptions::default());

        // A bound, idle bystander with nothing in flight.
        let mut bystander = std::net::TcpStream::connect(handle.addr.to_string()).unwrap();
        let mut reader = protocol::FrameReader::new();
        protocol::send(
            &mut bystander,
            &Request::Hello {
                client: "bystander".to_string(),
                benchmark: String::new(),
            },
        )
        .unwrap();
        let reply = reader.recv::<_, Response>(&mut bystander).unwrap().unwrap();
        assert!(matches!(reply, Response::HelloAck { .. }), "{reply:?}");

        client.shutdown().unwrap();
        handle.join().unwrap();

        // After the daemon exits, the bystander reads an orderly end of
        // stream — a FIN, not a connection reset.
        match reader.recv::<_, Response>(&mut bystander) {
            Ok(None) => {}
            other => panic!("expected a clean FIN, got {other:?}"),
        }
    }

    #[test]
    fn hello_select_stats_shutdown_over_tcp() {
        let (handle, client) = start(DaemonOptions::default());
        assert_eq!(client.info().benchmark, "daemon-test");
        assert_eq!(client.info().revision, 1);
        assert_eq!(client.info().landmarks, 2);

        let batch: Vec<FeatureVector> = (0..8).map(|i| vector(i as f64)).collect();
        let selections = client.select_batch(&batch).unwrap();
        for (i, s) in selections.iter().enumerate() {
            assert_eq!(s.landmark, usize::from(i >= 4), "input {i}");
            assert!(!s.fell_back);
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.primary.requests, 8);
        assert!(stats.shadow.is_none());
        assert_eq!(stats.connections, 1);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_completes_while_an_idle_connection_stays_open() {
        let daemon = Daemon::bind(
            artifact(1),
            DaemonOptions::default(),
            &ListenConfig::default(),
        )
        .unwrap();
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();
        // A monitoring-style client that connects and then just sits
        // there: its handler thread is parked in a blocking read and
        // must not keep the daemon alive past Shutdown.
        let idle = DaemonClient::connect(&addr).unwrap();
        let active = DaemonClient::connect(&addr).unwrap();
        active.shutdown().unwrap();
        handle.join().unwrap();
        drop(idle);
    }

    #[test]
    fn identical_shadow_agrees_fully_and_promotes() {
        let opts = DaemonOptions {
            shadow: ShadowPolicy {
                min_mirrored: 8,
                min_agreement: 0.99,
            },
            ..DaemonOptions::default()
        };
        let (handle, client) = start(opts);
        let (benchmark, revision) = client.load_artifact(&artifact(2)).unwrap();
        assert_eq!(benchmark, "daemon-test");
        assert_eq!(revision, 2);

        // Premature promote: gate refuses, shadow stays staged.
        let err = client.promote().unwrap_err();
        assert!(err.to_string().contains("mirrored"), "{err}");

        let batch: Vec<FeatureVector> = (0..8).map(|i| vector(i as f64)).collect();
        client.select_batch(&batch).unwrap();
        let stats = client.stats().unwrap();
        let shadow = stats.shadow.expect("shadow staged");
        assert_eq!(shadow.mirrored, 8);
        assert_eq!(shadow.agreed, 8, "identical artifact agrees everywhere");
        assert_eq!(shadow.agreement_rate, 1.0);
        let by_landmark: u64 = shadow.per_landmark.iter().map(|l| l.agreed).sum();
        assert_eq!(by_landmark, 8);

        assert_eq!(client.promote().unwrap(), 2);
        let stats = client.stats().unwrap();
        assert_eq!(stats.revision, 2);
        assert_eq!(stats.promotions, 1);
        assert!(stats.shadow.is_none());
        assert_eq!(stats.primary.requests, 0, "promotion starts fresh counters");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn drifting_shadow_is_auto_rejected_and_never_answers() {
        // The shadow artifact's centroids sit far away from every
        // request, so its drift monitor sees 100% OOD traffic; with the
        // daemon's thresholds it trips on the first mirrored batch.
        let opts = DaemonOptions {
            shadow_serve: ServeOptions {
                drift_threshold: 0.5,
                min_observations: 4,
                ..ServeOptions::default()
            },
            shadow: ShadowPolicy {
                min_mirrored: 1,
                min_agreement: 0.0,
            },
            ..DaemonOptions::default()
        };
        let (handle, client) = start(opts);
        let mut drifter = artifact(3);
        drifter.centroids = vec![vec![1e9; 3], vec![-1e9; 3]];
        drifter.dispersion = vec![1e-6, 1e-6];
        client.load_artifact(&drifter).unwrap();

        let batch: Vec<FeatureVector> = (0..8).map(|i| vector(i as f64)).collect();
        let first = client.select_batch(&batch).unwrap();
        // Clients always get primary answers — tree routing, no fallback.
        for (i, s) in first.iter().enumerate() {
            assert_eq!(s.landmark, usize::from(i >= 4), "input {i}");
        }
        let stats = client.stats().unwrap();
        assert!(
            stats.shadow.is_none(),
            "drift-tripped shadow was auto-rejected"
        );
        assert_eq!(stats.shadow_rejections, 1);
        assert_eq!(stats.revision, 1, "primary revision unchanged");
        let err = client.promote().unwrap_err();
        assert!(err.to_string().contains("no shadow"), "{err}");

        // Traffic after the rejection is still served by the primary.
        let second = client.select_batch(&batch).unwrap();
        assert_eq!(first, second);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn foreign_and_malformed_artifacts_are_refused_at_load() {
        let (handle, client) = start(DaemonOptions::default());
        let mut foreign = artifact(9);
        foreign.benchmark = "someone-else".to_string();
        let err = client.load_artifact(&foreign).unwrap_err();
        assert!(err.to_string().contains("someone-else"), "{err}");

        let err = client
            .load_artifact_document("{ not a document")
            .unwrap_err();
        assert!(err.to_string().contains("refused"), "{err}");

        let mut reshaped = artifact(9);
        reshaped.feature_defs = vec![FeatureDef::new("other", 1)];
        let err = client.load_artifact(&reshaped).unwrap_err();
        assert!(err.to_string().contains("feature"), "{err}");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn version_1_documents_hot_load_through_migration() {
        let (handle, client) = start(DaemonOptions::default());
        // Hand-build a v1 document: strip the v2 fields, stamp version 1.
        let a = artifact(5);
        let serde_json::Value::Object(fields) = serde_json::to_value(&a) else {
            panic!("artifact serializes to an object");
        };
        let v1_payload = serde_json::Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "revision" && k != "trained_inputs")
                .collect(),
        );
        let v1_doc = intune_core::codec::encode_document(
            intune_serve::ARTIFACT_SCHEMA,
            intune_serve::ARTIFACT_VERSION - 1,
            v1_payload,
        );
        let (benchmark, revision) = client.load_artifact_document(&v1_doc).unwrap();
        assert_eq!(benchmark, "daemon-test");
        assert_eq!(revision, 0, "v1 artifacts migrate to revision 0");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn ill_shaped_batches_get_typed_refusals_not_dropped_connections() {
        let (handle, client) = start(DaemonOptions::default());
        let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
        let incomplete = FeatureVector::empty(&defs);
        let err = client.select_batch(&[incomplete]).unwrap_err();
        assert!(err.to_string().contains("refused"), "{err}");
        // The connection survives a refusal.
        let ok = client.select_batch(&[vector(1.0)]).unwrap();
        assert_eq!(ok.len(), 1);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn daemon_journals_served_selections_and_keeps_journaling_after_promote() {
        use intune_serve::journal::{list_segments, read_segment};
        use intune_serve::{JournalOptions, JournalSink};
        use std::sync::Arc;

        let dir = intune_core::unique_temp_dir("daemon-journal");
        let sink = Arc::new(JournalSink::open(&dir, JournalOptions::default()).unwrap());
        let opts = DaemonOptions {
            shadow: ShadowPolicy {
                min_mirrored: 4,
                min_agreement: 0.99,
            },
            ..DaemonOptions::default()
        };
        let specs = logged(Some(sink), None);
        let (handle, client) =
            spawn_connected(Daemon::bind_tenants(specs, opts, &ListenConfig::default()).unwrap());

        // Traced batch: payloads land in the journal alongside vectors.
        let batch: Vec<FeatureVector> = (0..4).map(|i| vector(i as f64)).collect();
        let payloads: Vec<serde_json::Value> = (0..4)
            .map(|i| {
                if i == 2 {
                    serde_json::Value::Null
                } else {
                    serde_json::Value::Array(vec![serde_json::Value::Int(i)])
                }
            })
            .collect();
        let traced = client.select_batch_traced(&batch, &payloads).unwrap();
        let plain = client.select_batch(&batch).unwrap();
        assert_eq!(traced, plain, "payloads never steer selection");
        assert_eq!(client.stats().unwrap().journaled, 8);

        // Promote a staged revision; the new primary keeps journaling.
        client.load_artifact(&artifact(2)).unwrap();
        client.select_batch(&batch).unwrap();
        assert_eq!(client.promote().unwrap(), 2);
        client.select_batch(&batch).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.journaled, 16);

        client.shutdown().unwrap();
        handle.join().unwrap();

        // Read the journal back: revisions, landmarks and payloads match
        // what the daemon served.
        let segments = list_segments(&dir).unwrap();
        let mut records = Vec::new();
        for s in &segments {
            let scan = read_segment(s).unwrap();
            assert!(scan.torn.is_none());
            records.extend(scan.records);
        }
        assert_eq!(records.len(), 16);
        assert!(records[..12].iter().all(|r| r.revision == 1));
        assert!(records[12..].iter().all(|r| r.revision == 2));
        assert!(records[0].payload.is_some());
        assert!(records[2].payload.is_none(), "null payload elided");
        assert!(records[4].payload.is_none(), "untraced batch has none");
        for (r, s) in records[..4].iter().zip(&traced) {
            assert_eq!(r.landmark as usize, s.landmark);
        }
        // Mirror traffic (the staged shadow scored 4 vectors) was NOT
        // journaled: 16 primary answers, not 20 records.
    }

    #[test]
    fn stats_count_journal_drops_when_the_journal_cannot_be_written() {
        use intune_serve::{JournalOptions, JournalSink};
        use std::io::{Read as _, Write as _};
        use std::sync::Arc;

        let root = intune_core::unique_temp_dir("daemon-journal-drop");
        let dir = root.join("journal");
        // Two records fill a segment, so the next append must rotate to
        // a new file in `dir`.
        let journal = JournalOptions {
            segment_max_records: 2,
            ..JournalOptions::default()
        };
        let sink = Arc::new(JournalSink::open(&dir, journal).unwrap());
        let spans_dir = root.join("spans");
        std::fs::create_dir_all(&spans_dir).unwrap();
        let opts = DaemonOptions {
            spans: Some(Arc::new(
                intune_obs::SpanLog::open(&spans_dir.join("daemon.spans.log")).unwrap(),
            )),
            ..DaemonOptions::default()
        };
        let listen = ListenConfig {
            metrics: Some("127.0.0.1:0".to_string()),
            ..ListenConfig::default()
        };
        let daemon = Daemon::bind_tenants(logged(Some(sink.clone()), None), opts, &listen).unwrap();
        let scrape_addr = daemon.metrics_addr().expect("metrics listener bound");
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();
        let client = DaemonClient::connect(&addr).unwrap();

        let batch: Vec<FeatureVector> = (0..2).map(|i| vector(i as f64)).collect();
        client.select_batch(&batch).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!((stats.journaled, stats.journal_dropped), (2, 0));

        // Take the directory away: the rotation cannot create its
        // segment, so every record of the next batch is dropped — and
        // serving carries on.
        std::fs::remove_dir_all(&dir).unwrap();
        let three: Vec<FeatureVector> = (0..3).map(|i| vector(i as f64)).collect();
        assert_eq!(client.select_batch(&three).unwrap().len(), 3);
        let stats = client.stats().unwrap();
        assert_eq!((stats.journaled, stats.journal_dropped), (2, 3));
        assert_eq!(stats.journal_dropped, sink.dropped());
        assert!(sink.last_error().is_some());
        // So does the `Metrics` reply.
        let metrics = client.metrics().unwrap();
        let tenant = &metrics.tenants[0];
        assert_eq!(
            (
                tenant.journal_dropped,
                tenant.recorded_dropped,
                metrics.spans_dropped
            ),
            (3, 0, 0)
        );

        // The scrape shows every drop counter: the journal's, the
        // recorder's (none here) and the span log's.
        let mut sock = std::net::TcpStream::connect(scrape_addr).unwrap();
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        sock.read_to_string(&mut body).unwrap();
        for series in [
            "intune_journal_dropped_total{tenant=\"daemon-test\"} 3",
            "intune_recorded_dropped_total{tenant=\"daemon-test\"} 0",
            "intune_spans_dropped_total 0",
        ] {
            assert!(body.contains(series), "{series} missing from {body}");
        }

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn log_append_and_mirror_stages_count_frames_only_when_attached() {
        use intune_datalog::{RecorderSink, RecordingOptions};
        use intune_serve::{JournalOptions, JournalSink};
        use std::sync::Arc;

        let batch: Vec<FeatureVector> = (0..4).map(|i| vector(i as f64)).collect();
        let counts = |client: &DaemonClient| {
            let stages = client.metrics().unwrap().stages;
            (
                stages.select.count,
                stages.log_append.count,
                stages.mirror.count,
            )
        };
        // No log and no shadow: both stages stay empty.
        let (handle, client) = start(DaemonOptions::default());
        client.select_batch(&batch).unwrap();
        assert_eq!(counts(&client), (1, 0, 0));
        client.shutdown().unwrap();
        handle.join().unwrap();

        // A journal, a recorder and (from the second frame) a shadow: one
        // reading per frame in each stage that has work.
        let dir = intune_core::unique_temp_dir("daemon-stages");
        let journal = JournalSink::open(&dir.join("journal"), JournalOptions::default()).unwrap();
        let recorder = RecorderSink::open(&dir.join("record"), RecordingOptions::default());
        let specs = logged(Some(Arc::new(journal)), Some(Arc::new(recorder.unwrap())));
        let (handle, client) = spawn_connected(
            Daemon::bind_tenants(specs, DaemonOptions::default(), &ListenConfig::default())
                .unwrap(),
        );
        client.select_batch(&batch).unwrap();
        client.load_artifact(&artifact(2)).unwrap();
        client.select_batch(&batch).unwrap();
        let payloads = vec![serde_json::Value::Int(7); batch.len()];
        client.select_batch_traced(&batch, &payloads).unwrap();
        assert_eq!(counts(&client), (3, 3, 2));
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn daemon_records_wire_traffic_that_replays_with_zero_divergence() {
        use intune_datalog::{
            divergence, load_recording, replay, FrameBody, RecorderSink, RecordingOptions,
            ReplayOptions,
        };
        use intune_serve::VectorService;
        use std::sync::Arc;

        let dir = intune_core::unique_temp_dir("daemon-record");
        let sink = Arc::new(RecorderSink::open(&dir, RecordingOptions::default()).unwrap());
        let specs = logged(None, Some(Arc::clone(&sink)));
        let daemon =
            Daemon::bind_tenants(specs, DaemonOptions::default(), &ListenConfig::default())
                .unwrap();
        let addr = daemon.tcp_addr().to_string();
        let (handle, client) = spawn_connected(daemon);

        let batch: Vec<FeatureVector> = (0..6).map(|i| vector(i as f64)).collect();
        let expected = client.select_batch(&batch).unwrap();
        // A second connection interleaves its own selection frame.
        let other = DaemonClient::connect(&addr).unwrap();
        let other_expected = other.select_batch(&batch[3..]).unwrap();
        let payloads = vec![serde_json::Value::Int(7)];
        client.select_batch_traced(&batch[..1], &payloads).unwrap();
        // Pipelined batches land as ordinary frames, one per batch, in
        // request order.
        let piped = client
            .select_batch_pipelined(&[(&batch[..2], &[][..]), (&batch[2..], &[][..])], 4)
            .unwrap();
        assert_eq!(piped.concat(), expected);
        let stats = client.stats().unwrap();
        // Two Hellos + 5 selection frames + the Stats request itself.
        assert_eq!(stats.recorded, 8);
        assert_eq!(sink.dropped(), 0);
        drop(other);
        client.shutdown().unwrap();
        handle.join().unwrap();

        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.torn_segments, 0);
        assert_eq!(recording.frames.len(), 8);
        assert!(
            matches!(&recording.frames[0].body, FrameBody::Control { kind } if kind == "Hello")
        );
        assert!(recording.frames.iter().all(|f| f.tenant == "daemon-test"));
        let conns: Vec<u64> = recording.frames.iter().map(|f| f.conn).collect();
        assert_eq!(
            conns,
            [0, 0, 1, 1, 0, 0, 0, 0],
            "two connections, interleaved in arrival order"
        );
        match &recording.frames[4].body {
            FrameBody::Select {
                features, payloads, ..
            } => {
                assert_eq!(features.len(), 1);
                assert_eq!(payloads, &vec![serde_json::Value::Int(7)]);
            }
            other => panic!("traced batch recorded as {other:?}"),
        }

        // Replay the capture in-process twice: transcripts byte-identical,
        // zero divergence, and the answers are exactly what the daemon
        // originally served on each connection.
        let replay_service = || VectorService::new(artifact(1), ServeOptions::default()).unwrap();
        let a = replay(
            &recording.frames,
            &replay_service(),
            &ReplayOptions::default(),
        )
        .unwrap();
        let b = replay(
            &recording.frames,
            &replay_service(),
            &ReplayOptions::default(),
        )
        .unwrap();
        assert_eq!(a.control_skipped, 3, "two Hellos + Stats");
        assert_eq!(a.selections(), 16);
        assert_eq!(a.transcript(), b.transcript());
        let report = divergence(&a, &b);
        assert!(report.clean(), "{report:?}");
        assert_eq!(a.results[0].selections, expected);
        assert_eq!(a.results[1].conn, 1);
        assert_eq!(a.results[1].selections, other_expected);
    }

    #[test]
    fn handler_panic_costs_one_connection_never_the_daemon() {
        let opts = DaemonOptions {
            inject_faults: true,
            ..DaemonOptions::default()
        };
        let (handle, client) = start(opts);

        // A raw second connection whose handler we crash mid-request.
        let mut victim = std::net::TcpStream::connect(handle.addr).unwrap();
        protocol::send(&mut victim, &Request::InjectPanic).unwrap();
        // The handler panicked before replying: the connection dies with
        // no response frame (clean close or reset), never a reply.
        match protocol::recv::<_, Response>(&mut victim) {
            Ok(None) | Err(_) => {}
            Ok(Some(r)) => panic!("crashed handler still replied: {r:?}"),
        }

        // The daemon itself is unharmed: the original client still gets
        // selections and a stats snapshot over its own connection.
        let batch: Vec<FeatureVector> = (0..8).map(|i| vector(i as f64)).collect();
        let selections = client.select_batch(&batch).unwrap();
        for (i, s) in selections.iter().enumerate() {
            assert_eq!(s.landmark, usize::from(i >= 4), "input {i}");
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.primary.requests, 8);
        assert_eq!(stats.connections, 2);

        // A fresh connection is also accepted after the crash.
        let late = DaemonClient::connect(&handle.addr.to_string()).unwrap();
        assert_eq!(late.info().benchmark, "daemon-test");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn fault_injection_is_refused_unless_enabled() {
        let (handle, client) = start(DaemonOptions::default());
        let mut raw = std::net::TcpStream::connect(handle.addr).unwrap();
        protocol::send(&mut raw, &Request::InjectPanic).unwrap();
        let mut reader = protocol::FrameReader::new();
        let reply = reader.recv::<_, Response>(&mut raw).unwrap().unwrap();
        let Response::Error { detail } = reply else {
            panic!("expected a typed refusal, got {reply:?}");
        };
        assert!(detail.contains("disabled"), "{detail}");
        // The refusal is an answer, not a crash: the same connection
        // keeps serving.
        protocol::send(&mut raw, &Request::Stats).unwrap();
        let reply = reader.recv::<_, Response>(&mut raw).unwrap().unwrap();
        assert!(matches!(reply, Response::StatsReply { .. }), "{reply:?}");

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_domain_socket_serves_the_same_protocol() {
        let dir = intune_core::unique_temp_dir("daemon-uds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");
        let daemon = Daemon::bind(
            artifact(1),
            DaemonOptions::default(),
            &ListenConfig {
                tcp: "127.0.0.1:0".to_string(),
                uds: Some(path.clone()),
                ..ListenConfig::default()
            },
        )
        .unwrap();
        let handle = daemon.spawn();
        let client = DaemonClient::connect(&format!("unix:{}", path.display())).unwrap();
        assert_eq!(client.info().benchmark, "daemon-test");
        let got = client.select_batch(&[vector(7.0)]).unwrap();
        assert_eq!(got[0].landmark, 1);
        client.shutdown().unwrap();
        handle.join().unwrap();
        assert!(!path.exists(), "socket file cleaned up on exit");
    }

    #[test]
    fn metrics_wire_request_reports_tenant_counters_and_stage_timings() {
        let (handle, client) = start(DaemonOptions::default());
        let batch: Vec<FeatureVector> = (0..8).map(|i| vector(i as f64)).collect();
        client.select_batch(&batch).unwrap();
        client.select_batch(&batch).unwrap();

        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.tenants.len(), 1);
        let tenant = &metrics.tenants[0];
        assert_eq!(tenant.benchmark, "daemon-test");
        assert_eq!(tenant.revision, 1);
        assert_eq!(tenant.requests, 2);
        assert_eq!(tenant.selections, 16);
        assert_eq!(tenant.latency.count, 2);
        assert!(tenant.latency.p50_ns > 0);
        assert!(tenant.latency.max_ns >= tenant.latency.p999_ns);

        // Stage histograms: two select frames were decoded, selected,
        // encoded, and flushed (plus the handshake/metrics control
        // frames on decode/encode).
        assert_eq!(metrics.stages.select.count, 2);
        assert!(metrics.stages.decode.count >= 2);
        assert!(metrics.stages.encode.count >= 2);
        assert!(metrics.stages.queued_write.count >= 2);
        assert!(metrics.connections >= 1);

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn http_scrape_exposes_per_tenant_series() {
        use std::io::{Read as _, Write as _};
        let specs = vec![
            TenantSpec {
                artifact: named_artifact("alpha", 1),
                trace: None,
                recorder: None,
                trace_sample: None,
            },
            TenantSpec {
                artifact: named_artifact("beta", 1),
                trace: None,
                recorder: None,
                trace_sample: None,
            },
        ];
        let listen = ListenConfig {
            metrics: Some("127.0.0.1:0".to_string()),
            ..ListenConfig::default()
        };
        let daemon = Daemon::bind_tenants(specs, DaemonOptions::default(), &listen).unwrap();
        let addr = daemon.tcp_addr().to_string();
        let scrape_addr = daemon.metrics_addr().expect("metrics listener bound");
        let handle = daemon.spawn();

        let alpha = DaemonClient::connect_to(&addr, "alpha").unwrap();
        let beta = DaemonClient::connect_to(&addr, "beta").unwrap();
        let batch: Vec<FeatureVector> = (0..4).map(|i| vector(i as f64)).collect();
        alpha.select_batch(&batch).unwrap();
        alpha.select_batch(&batch).unwrap();
        beta.select_batch(&batch).unwrap();

        // A plain HTTP/1.0 scrape on the separate metrics listener,
        // served by the same poll loop that is serving wire traffic.
        let mut sock = std::net::TcpStream::connect(scrape_addr).unwrap();
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        sock.read_to_string(&mut body).unwrap();

        assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
        assert!(
            body.contains("Content-Type: text/plain; version=0.0.4"),
            "{body}"
        );
        assert!(
            body.contains("intune_requests_total{tenant=\"alpha\"} 2"),
            "{body}"
        );
        assert!(
            body.contains("intune_requests_total{tenant=\"beta\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("intune_selections_total{tenant=\"alpha\"} 8"),
            "{body}"
        );
        assert!(
            body.contains("intune_request_seconds{tenant=\"alpha\",quantile=\"0.99\"}"),
            "{body}"
        );
        assert!(
            body.contains("intune_stage_seconds{stage=\"select\",quantile=\"0.5\"}"),
            "{body}"
        );
        assert!(body.contains("intune_tenants 2"), "{body}");

        alpha.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn lifecycle_events_are_journaled_through_promote() {
        use intune_obs::{read_events, EventKind, EventLog};
        let dir = intune_core::unique_temp_dir("daemon-events");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.log");
        let opts = DaemonOptions {
            shadow: ShadowPolicy {
                min_mirrored: 8,
                min_agreement: 0.99,
            },
            events: Some(std::sync::Arc::new(EventLog::open(&path).unwrap())),
            ..DaemonOptions::default()
        };
        let (handle, client) = start(opts);
        client.load_artifact(&artifact(2)).unwrap();
        let batch: Vec<FeatureVector> = (0..8).map(|i| vector(i as f64)).collect();
        client.select_batch(&batch).unwrap();
        assert_eq!(client.promote().unwrap(), 2);
        // A Metrics wire request heartbeats each tenant's latency
        // summary into the log.
        client.metrics().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();

        let scan = read_events(&path).unwrap();
        assert!(scan.torn.is_none(), "clean shutdown leaves no torn tail");
        let events = scan.records;
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::TenantBound { .. })
                    && e.tenant == "daemon-test"
                    && e.revision == 1),
            "{events:?}"
        );
        assert!(
            events.iter().any(
                |e| matches!(e.kind, EventKind::ShadowStaged { trained_inputs: 8 })
                    && e.revision == 2
            ),
            "{events:?}"
        );
        let promoted = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Promoted { .. }))
            .expect("promote journaled");
        assert_eq!(promoted.tenant, "daemon-test");
        assert_eq!(promoted.revision, 2);
        let EventKind::Promoted {
            mirrored,
            agreed,
            agreement_rate,
        } = &promoted.kind
        else {
            unreachable!()
        };
        assert_eq!(*mirrored, 8);
        assert_eq!(*agreed, 8);
        assert_eq!(*agreement_rate, 1.0);
        let heartbeat = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::LatencySnapshot { .. }))
            .expect("metrics request heartbeats latency");
        let EventKind::LatencySnapshot { latency } = &heartbeat.kind else {
            unreachable!()
        };
        assert_eq!(latency.count, 1, "one select frame before the snapshot");
    }

    /// One sampled request leaves a connected span tree across layers —
    /// client root span, server span parented on it, stage spans and the
    /// service's selection span under the server span — plus a latency
    /// exemplar carrying the same trace id into `Metrics` and the scrape.
    #[test]
    fn traced_request_spans_cross_every_layer() {
        use intune_obs::{read_span_dir, SpanLog};
        let dir = intune_core::unique_temp_dir("daemon-spans");
        std::fs::create_dir_all(&dir).unwrap();
        let daemon_log = std::sync::Arc::new(SpanLog::open(&dir.join("daemon.spans.log")).unwrap());
        let client_log = std::sync::Arc::new(SpanLog::open(&dir.join("client.spans.log")).unwrap());

        let opts = DaemonOptions {
            trace_sample: 1,
            spans: Some(std::sync::Arc::clone(&daemon_log)),
            ..DaemonOptions::default()
        };
        let daemon = Daemon::bind(artifact(1), opts, &ListenConfig::default()).unwrap();
        let addr = daemon.tcp_addr().to_string();
        let handle = daemon.spawn();
        let mut client = DaemonClient::connect(&addr).unwrap();
        client.enable_tracing(1, std::sync::Arc::clone(&client_log));

        client.select_batch(&[vector(3.0)]).unwrap();
        let metrics = client.metrics().unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();

        let scan = read_span_dir(&dir).unwrap();
        assert!(scan.torn.is_none(), "clean shutdown leaves no torn tails");
        let spans = scan.records;
        let client_span = spans
            .iter()
            .find(|s| s.name == "client.select_batch")
            .expect("client root span recorded");
        let trace = client_span.trace_id;
        assert_ne!(trace, 0);
        assert_eq!(
            client_span.parent_span, 0,
            "the client span roots the trace"
        );
        let server_span = spans
            .iter()
            .find(|s| s.name == "server.request")
            .expect("server span recorded");
        assert_eq!(server_span.trace_id, trace, "one id crosses the wire");
        assert_eq!(
            server_span.parent_span, client_span.span_id,
            "the server span nests under the client's"
        );
        for stage in ["stage.decode", "stage.select", "stage.encode"] {
            let span = spans
                .iter()
                .find(|s| s.name == stage)
                .unwrap_or_else(|| panic!("{stage} span recorded"));
            assert_eq!(span.trace_id, trace);
            assert_eq!(span.parent_span, server_span.span_id);
        }
        let service = spans
            .iter()
            .find(|s| s.name == "service.select")
            .expect("service selection span recorded");
        assert_eq!(service.trace_id, trace);
        assert_eq!(service.parent_span, server_span.span_id);
        assert!(
            service
                .annotations
                .iter()
                .any(|(k, v)| k == "revision" && v == "1"),
            "{:?}",
            service.annotations
        );

        // The same trace id surfaces as the tenant's latency exemplar.
        let exemplar = metrics.tenants[0]
            .exemplar
            .as_ref()
            .expect("sampled request leaves an exemplar");
        assert_eq!(exemplar.trace_id, trace);
        assert!(exemplar.value_ns > 0);
    }

    /// The metrics endpoint is a GET-only scrape surface: non-GET
    /// methods are refused with 405 (+ Allow), unknown paths with 404,
    /// and a head that is not HTTP at all with 400 — each over a raw
    /// socket, each on the same listener that serves real scrapes.
    #[test]
    fn http_metrics_endpoint_rejects_non_get_and_unknown_paths() {
        use std::io::{Read as _, Write as _};
        let listen = ListenConfig {
            metrics: Some("127.0.0.1:0".to_string()),
            ..ListenConfig::default()
        };
        let daemon = Daemon::bind(artifact(1), DaemonOptions::default(), &listen).unwrap();
        let addr = daemon.tcp_addr().to_string();
        let scrape_addr = daemon.metrics_addr().expect("metrics listener bound");
        let handle = daemon.spawn();

        let roundtrip = |request: &[u8]| {
            let mut sock = std::net::TcpStream::connect(scrape_addr).unwrap();
            sock.write_all(request).unwrap();
            let mut reply = String::new();
            sock.read_to_string(&mut reply).unwrap();
            reply
        };

        let post = roundtrip(b"POST /metrics HTTP/1.0\r\n\r\n");
        assert!(
            post.starts_with("HTTP/1.0 405 Method Not Allowed\r\n"),
            "{post}"
        );
        assert!(post.contains("Allow: GET\r\n"), "{post}");

        let missing = roundtrip(b"GET /nope HTTP/1.0\r\n\r\n");
        assert!(
            missing.starts_with("HTTP/1.0 404 Not Found\r\n"),
            "{missing}"
        );

        let garbage = roundtrip(b"definitely not http\r\n\r\n");
        assert!(
            garbage.starts_with("HTTP/1.0 400 Bad Request\r\n"),
            "{garbage}"
        );

        // `/` and `/metrics` still scrape after the refusals.
        let root = roundtrip(b"GET / HTTP/1.0\r\n\r\n");
        assert!(root.starts_with("HTTP/1.0 200 OK\r\n"), "{root}");
        assert!(root.contains("intune_tenants 1"), "{root}");

        let client = DaemonClient::connect(&addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
