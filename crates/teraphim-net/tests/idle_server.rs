//! An idle fleet wakes nothing: servers whose clients are connected but
//! silent block in `accept`, in their connection reads and on the job
//! queue, so none of their threads is scheduled until a request comes.
//! Linux only (the count is read from `/proc/self/task`), and a test
//! binary of its own, so that no parallel test starts servers.
#![cfg(target_os = "linux")]

use std::time::Duration;
use teraphim_net::tcp::TcpServer;
use teraphim_net::{Message, MuxTransport, Transport};

/// Voluntary context switches summed over this process's server
/// threads: `teraphim-accept`, `teraphim-conn` and `teraphim-worker-*`
/// (which the kernel truncates to `teraphim-worker`).
fn server_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        // A thread that ended since the listing has no status left.
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        let field = |name: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(name))
                .map(str::trim)
        };
        if field("Name:").is_some_and(|name| name.starts_with("teraphim-")) {
            let switches = field("voluntary_ctxt_switches:").and_then(|n| n.parse().ok());
            total += switches.unwrap_or(0);
        }
    }
    total
}

#[test]
fn an_idle_fleet_wakes_nothing() {
    let servers: Vec<TcpServer> = (0..8)
        .map(|_| TcpServer::spawn(|request: Message| request, "127.0.0.1:0").unwrap())
        .collect();
    let mut clients: Vec<MuxTransport> = servers
        .iter()
        .map(|server| MuxTransport::connect(server.addr()).unwrap())
        .collect();
    // One exchange each, so every connection's reader is up and has
    // served; then let the threads settle into their blocking calls.
    for client in &mut clients {
        client.request(&Message::StatsRequest).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    let before = server_switches();
    std::thread::sleep(Duration::from_millis(300));
    let after = server_switches();
    assert_eq!(
        after - before,
        0,
        "8 idle servers switched {} times in 300 ms",
        after - before
    );
    drop(clients);
    for server in servers {
        server.shutdown();
    }
}
