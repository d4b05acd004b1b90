//! Helpers shared by the serve integration suites: a trained model, a
//! server over it, and a minimal HTTP/1.1 client.
//!
//! Each suite compiles this module separately and uses a different
//! subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use uadb::UadbConfig;
use uadb_data::synth::{fig5_dataset, AnomalyType};
use uadb_detectors::DetectorKind;
use uadb_linalg::Matrix;
use uadb_serve::json::{self, Value};
use uadb_serve::model::ServedModel;
use uadb_serve::pool::PoolConfig;
use uadb_serve::{ModelRegistry, Server, ServerConfig, ServerHandle};

/// A fast-for-tests booster over an HBOS teacher, trained on the Fig. 5
/// clustered dataset generated with `seed`.
pub fn trained_model(seed: u64) -> ServedModel {
    let data = fig5_dataset(AnomalyType::Clustered, seed);
    ServedModel::train(&data, DetectorKind::Hbos, UadbConfig::fast_for_tests(seed)).unwrap()
}

/// Spawns a server over a single-model registry (`default`, 2 workers,
/// 16-row shards), so one trained model can back several servers.
pub fn spawn_with(model: &Arc<ServedModel>, config: ServerConfig) -> ServerHandle {
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert("default", Arc::clone(model), PoolConfig { workers: 2, shard_rows: 16 })
        .unwrap();
    Server::bind("127.0.0.1:0", registry, config).unwrap().spawn().unwrap()
}

/// A parsed HTTP response.
pub struct HttpResponse {
    pub status: u16,
    /// Lower-cased `Connection` header value, if present.
    pub connection: Option<String>,
    pub body: String,
}

/// Reads one `Content-Length`-framed response.
pub fn read_response(reader: &mut impl BufRead) -> HttpResponse {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status line");
    assert!(status_line.starts_with("HTTP/1.1 "), "unexpected status line {status_line:?}");
    let status: u16 =
        status_line.split_whitespace().nth(1).expect("status code").parse().expect("numeric");
    let mut content_length = 0usize;
    let mut connection = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().expect("numeric Content-Length");
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.to_ascii_lowercase());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    HttpResponse { status, connection, body: String::from_utf8(body).expect("UTF-8 body") }
}

/// One-shot request on a fresh connection with `Connection: close`.
/// Asserts the server answers with `Connection: close` and then closes
/// the socket with a clean EOF; returns `(status, body)`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let payload = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader);
    assert_eq!(response.connection.as_deref(), Some("close"));
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => {}
        Ok(_) => panic!("server sent bytes after a Connection: close response"),
        Err(e) => panic!("expected clean EOF after Connection: close, got {e}"),
    }
    (response.status, response.body)
}

/// `{"rows": [...]}` for the given rows of `x`.
pub fn rows_json(x: &Matrix, rows: &[usize]) -> String {
    let rows: Vec<Value> = rows.iter().map(|&r| json::number_array(x.row(r))).collect();
    json::to_string(&json::object([("rows", Value::Array(rows))]))
}

/// The `scores` array of a JSON scoring response.
pub fn parse_scores(body: &str) -> Vec<f64> {
    json::parse(body)
        .expect("valid JSON response")
        .get("scores")
        .expect("scores field")
        .as_array()
        .expect("scores is an array")
        .iter()
        .map(|v| v.as_f64().expect("numeric score"))
        .collect()
}
