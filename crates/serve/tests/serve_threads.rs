//! The serve runtime's thread budget: one `serve-reader` thread per
//! connection and nothing else per request path — no batcher thread, no
//! writer threads. This is its own test binary because it counts every
//! thread of the process by name (`/proc/self/task/*/comm`).

use marl_algo::{Algorithm, Task, TrainConfig, Trainer};
use marl_dist::wire::{HEADER_LEN, KIND_INFER_RESP};
use marl_dist::StreamTransport;
use marl_obs::context::TraceCtx;
use marl_obs::metrics::MetricsRegistry;
use marl_serve::{proto, PolicyModel, ServeConfig, ServeListener, Server};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Live threads of this process, by name.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task directory")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

fn count(names: &[String], name: &str) -> usize {
    names.iter().filter(|n| *n == name).count()
}

#[test]
fn one_reader_thread_per_connection_and_no_batcher_or_writer() {
    let config = TrainConfig::paper_defaults(Algorithm::Maddpg, Task::PredatorPrey, 3);
    let model =
        PolicyModel::from_checkpoint(&Trainer::new(config).expect("trainer").checkpoint(), 0);
    let obs = vec![0.5; model.obs_dim(0)];
    let path = std::env::temp_dir().join(format!("marl-serve-threads-{}.sock", std::process::id()));
    let listener = ServeListener::unix(&path).expect("bind");
    let server = Server::start(
        listener,
        model,
        ServeConfig::default(),
        Arc::new(MetricsRegistry::new()),
        None,
    );

    let mut conns: Vec<StreamTransport> = Vec::new();
    let mut frame = Vec::new();
    for req_id in 0..2 {
        let stream = loop {
            if let Ok(s) = UnixStream::connect(&path) {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut conn = StreamTransport::unix(stream);
        // An answer proves the connection's reader is up.
        proto::encode_request(req_id, 0, &obs, TraceCtx::NONE, &mut frame);
        conn.send_raw(&frame).expect("send");
        let kind = conn.recv_raw_into(&mut frame, Duration::from_secs(5)).expect("answer");
        assert_eq!(kind, KIND_INFER_RESP);
        proto::decode_response_into(&frame[HEADER_LEN..], &mut Vec::new()).expect("decodes");
        conns.push(conn);
    }

    let names = thread_names();
    assert_eq!(count(&names, "serve-reader"), 2, "one reader per connection: {names:?}");
    assert_eq!(count(&names, "serve-batcher"), 0, "{names:?}");
    assert_eq!(count(&names, "serve-writer"), 0, "{names:?}");
    assert_eq!(count(&names, "serve-accept"), 1, "{names:?}");

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_file(&path);
}
