//! End-to-end walkthrough of the JSON API over a real socket: every
//! endpoint, every documented error status, and the metrics document.

mod common;

use std::net::SocketAddr;
use std::sync::Arc;

use common::request;
use nalist_obs::MetricsRecorder;
use nalist_serve::{Server, ServerConfig};
use nalist_types::json::parse as parse_json;

fn boot() -> (Server, SocketAddr) {
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let srv = nalist_serve::server::start(&cfg, Arc::new(MetricsRecorder::new())).expect("start");
    let addr = srv.local_addr();
    (srv, addr)
}

#[test]
fn full_api_walkthrough() {
    let (srv, addr) = boot();

    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"tenants\": 0"), "{body}");

    // Tenant creation: 201, then 409 on the duplicate, 400 on a bad name.
    let create = r#"{"schema": "L(A, B, C)", "deps": ["L(A) -> L(B)"]}"#;
    let (status, body) = request(addr, "POST", "/v1/t1/create", Some(create));
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"sigma\": 1"), "{body}");
    let (status, _) = request(addr, "POST", "/v1/t1/create", Some(create));
    assert_eq!(status, 409);
    let (status, _) = request(addr, "POST", "/v1/bad!name/create", Some(create));
    assert_eq!(status, 400);

    // Single queries.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) ->> L(B)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": true"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": false"), "{body}");
    let (status, _) = request(addr, "POST", "/v1/t1/query", Some(r#"{"query": "junk"}"#));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/t1/query", Some("{}"));
    assert_eq!(status, 400);

    // Batch queries go through the batch planner and come back in order.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"queries": ["L(A) -> L(B)", "L(B) -> L(A)", "L(A, B) -> L(A)"]}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("[true, false, true]"), "{body}");

    // Edits: add changes answers, removing an absent dependency is 400
    // (and must not journal), removing a present one restores the world.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/edit",
        Some(r#"{"op": "add", "dep": "L(B) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"adds\": 1"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": true"), "{body}");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/edit",
        Some(r#"{"op": "remove", "dep": "L(A) ->> L(C)"}"#),
    );
    assert_eq!(status, 400);
    assert!(body.contains("not in Σ"), "{body}");
    let (status, _) = request(
        addr,
        "POST",
        "/v1/t1/edit",
        Some(r#"{"edits": [{"op": "remove", "dep": "L(B) -> L(C)"}]}"#),
    );
    assert_eq!(status, 200);
    let (status, body) = request(
        addr,
        "POST",
        "/v1/t1/query",
        Some(r#"{"query": "L(A) -> L(C)"}"#),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": false"), "{body}");

    // Certificates, both verdicts; the dependency rides percent-encoded.
    let (status, body) = request(addr, "GET", "/v1/t1/cert?dep=L(A)%20-%3E%20L(B)", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": true"), "{body}");
    assert!(body.contains("\"certificate\""), "{body}");
    let (status, body) = request(addr, "GET", "/v1/t1/cert?dep=L(A)%20-%3E%20L(C)", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"implied\": false"), "{body}");
    let (status, _) = request(addr, "GET", "/v1/t1/cert", None);
    assert_eq!(status, 400);

    // Σ listing with cache counters.
    let (status, body) = request(addr, "GET", "/v1/t1/sigma", None);
    assert_eq!(status, 200);
    assert!(body.contains("L(A) -> L(B)"), "{body}");
    assert!(body.contains("\"cache\""), "{body}");

    // The metrics document is valid, schema-versioned JSON.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let doc = parse_json(&body).expect("metrics is valid JSON");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_usize()),
        Some(3)
    );
    let requests = doc
        .get("counters")
        .and_then(|c| c.get("requests"))
        .and_then(|v| v.as_usize())
        .expect("requests counter");
    assert!(requests > 0, "{requests}");

    // Routing errors: 404 for unknown things, 405 for wrong verbs.
    let (status, _) = request(addr, "GET", "/nowhere", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/t1/unknownaction", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/v1/ghost/query", Some(r#"{"query": "x"}"#));
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/v1/t1/query", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "POST", "/healthz", None);
    assert_eq!(status, 405);
    let (status, _) = request(addr, "GET", "/v1/t1/create", None);
    assert_eq!(status, 405);

    srv.shutdown();
}

#[test]
fn reload_of_an_exponentially_ambiguous_line_is_a_prompt_l007() {
    // R(A×40) with `R(A×20) -> R(A)`: C(40, 20) ≈ 1.4e11 resolutions.
    // `/reload` lints the posted file before applying anything; the
    // ambiguity hint must not enumerate them.
    let (srv, addr) = boot();
    let schema = format!("R({})", vec!["A"; 40].join(", "));
    let create = format!(r#"{{"schema": "{schema}", "deps": []}}"#);
    let (status, body) = request(addr, "POST", "/v1/wide/create", Some(&create));
    assert_eq!(status, 201, "{body}");
    let deps = format!("R({}) -> R(A)\n", vec!["A"; 20].join(", "));
    let reload = format!(r#"{{"deps": "{}"}}"#, deps.replace('\n', "\\n"));
    let (status, body) = request(addr, "POST", "/v1/wide/reload", Some(&reload));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"invalid_deps\""), "{body}");
    assert!(body.contains("L007"), "{body}");
    assert!(body.contains("137846528820 distinct resolutions"), "{body}");
    let (status, body) = request(addr, "GET", "/v1/wide/sigma", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"sigma\": []"), "nothing applied: {body}");
    srv.shutdown();
}
