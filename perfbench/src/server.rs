//! The server under test, in a child process of its own.
//!
//! The benchmark re-executes its own binary in the server role, which
//! binds an [`RtimServer`] on an ephemeral loopback port with one
//! event-loop thread, announces the address on stdout and serves until a
//! `SHUTDOWN` frame.  The parent measures the child from the outside:
//! wall time over the wire, CPU time and peak RSS from `/proc/<pid>`.

use crate::host::ProcSample;
use crate::workload::Workload;
use rtim_core::{PersistOptions, TraceConfig};
use rtim_server::{RtimClient, RtimServer, ServerConfig};
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to exit after `SHUTDOWN` before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Options of one server child.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    pub workload: String,
    pub toy: bool,
    /// Persistence directory (workloads with persistence only).
    pub dir: Option<PathBuf>,
    /// Flight recorder at 1-in-1 sampling.
    pub trace: bool,
}

/// The server role: serve until `SHUTDOWN`, then exit.
pub fn serve(w: &Workload, opts: &ServeOptions) -> io::Result<()> {
    let mut config = ServerConfig::new(w.config(), w.kind).with_event_loop_threads(1);
    if let (Some(every), Some(dir)) = (w.snapshot_every, &opts.dir) {
        config =
            config.with_persistence(PersistOptions::new(dir).with_snapshot_every_slides(every));
    }
    if opts.trace {
        config = config.with_tracing(TraceConfig::sampled(1, 50));
    }
    let server = RtimServer::bind("127.0.0.1:0", config)?;
    let mut out = io::stdout().lock();
    writeln!(out, "LISTEN {}", server.local_addr())?;
    out.flush()?;
    drop(out);
    let report = server.wait();
    eprintln!(
        "perfbench server: drained {} actions in {} batches",
        report.stats.actions, report.stats.batches
    );
    Ok(())
}

/// A running server child.  Dropping it kills and reaps the process.
pub struct ServerChild {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl ServerChild {
    pub fn spawn(opts: &ServeOptions) -> io::Result<ServerChild> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve")
            .args(["--workload", &opts.workload])
            .args(["--toy", if opts.toy { "1" } else { "0" }])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &opts.dir {
            cmd.arg("--dir").arg(dir);
        }
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("LISTEN ")
                .and_then(|a| a.parse::<SocketAddr>().ok())
        });
        match addr {
            Some(addr) => Ok(ServerChild {
                child: Some(child),
                addr,
                pid,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server child did not announce its address (got {line:?})"
                )))
            }
        }
    }

    pub fn proc_sample(&self) -> io::Result<ProcSample> {
        ProcSample::read(self.pid)
    }

    /// Asks the server to drain and exit, and reaps it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = RtimClient::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| io::Error::other(format!("SHUTDOWN failed: {e}")));
        let mut child = self.child.take().expect("child present until shutdown");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = child.try_wait()? {
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "server child exited with {status}"
                    )))
                };
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server child did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(label: &str) -> io::Result<WorkDir> {
        let dir = Path::new(".bench_build")
            .join("perfbench-work")
            .join(format!("{}-{label}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
