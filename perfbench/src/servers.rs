//! Loopback servers the service workloads drive: `MapServer` backends,
//! the cluster `Router`, and the scratch directories of their disk tiers.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gmm_cluster::{Router, RouterOptions};
use gmm_service::{JobQueue, MapServer, QueueOptions};

/// A directory for disk tiers inside the build directory of the
/// checkout (`CARGO_TARGET_DIR`, else this package's `target/`), removed
/// when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
        let dir = base.join("perfbench-tmp").join(format!(
            "{}-{}-{}",
            std::process::id(),
            tag,
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One loopback `mapsrv` with its queue (and disk tier, if any).
pub struct Backend {
    server: Option<MapServer>,
    queue: Arc<JobQueue>,
    _dir: Option<ScratchDir>,
}

impl Backend {
    /// One solver thread (the host has two cores, and the client and the
    /// connection threads need the other), a memory cache of `cache_cap`
    /// entries, and a disk tier in a fresh directory when `disk` is set.
    pub fn start(cache_cap: usize, disk: bool) -> Result<Backend, String> {
        let dir = if disk {
            Some(ScratchDir::new("disk").map_err(|e| format!("scratch dir: {e}"))?)
        } else {
            None
        };
        let mut opts = QueueOptions::default();
        opts.workers = 1;
        opts.cache_cap = cache_cap;
        opts.persist_dir = dir.as_ref().map(|d| d.path().to_path_buf());
        let queue = Arc::new(JobQueue::new(opts));
        let server = MapServer::start("127.0.0.1:0", queue.clone())
            .map_err(|e| format!("start mapsrv: {e}"))?;
        Ok(Backend {
            server: Some(server),
            queue,
            _dir: dir,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running").local_addr()
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        drop(self.server.take());
        self.queue.shutdown();
    }
}

/// A `Router` over backends, stopped and joined when dropped.
pub struct RouterHandle(Option<Router>);

impl RouterHandle {
    pub fn start(backends: &[Backend]) -> Result<RouterHandle, String> {
        let addrs = backends.iter().map(|b| b.addr().to_string()).collect();
        Router::start("127.0.0.1:0", RouterOptions::new(addrs))
            .map(|r| RouterHandle(Some(r)))
            .map_err(|e| format!("start router: {e}"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running").local_addr()
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if let Some(router) = self.0.take() {
            router.request_stop();
            router.join();
        }
    }
}
