//! The host record stamped into every result.

use std::path::Path;

pub struct Host {
    /// CPUs the benchmark was allowed before it pinned itself.
    pub nproc: usize,
    /// The one CPU every thread of the run is pinned to (see [`pin`]).
    pub cpu_pinned: Option<usize>,
    pub cpu: String,
    /// The cache-line flush instruction `puddles_pmem::persist` issues,
    /// detected with the same CPUID test.
    pub flush: &'static str,
    pub pm_fs: String,
    pub commit: String,
    pub seed: u64,
}

impl Host {
    pub fn detect(pm_dir: &Path, commit: &str, seed: u64, pinned: &Pinned) -> Host {
        Host {
            nproc: pinned.allowed,
            cpu_pinned: pinned.cpu,
            cpu: cpu_model(),
            flush: flush_instruction(),
            pm_fs: filesystem(pm_dir),
            commit: commit.to_string(),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_pinned\":{},\"cpu\":{},\"flush\":\"{}\",\"pm_fs\":\"{}\",\"commit\":{},\"seed\":{}}}",
            self.nproc,
            self.cpu_pinned.map_or("null".into(), |c| c.to_string()),
            json_str(&self.cpu),
            self.flush,
            self.pm_fs,
            json_str(&self.commit),
            self.seed
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use core::arch::x86_64::__cpuid;
    // The extended leaf range is checked before the brand-string leaves
    // are read.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

#[cfg(target_arch = "x86_64")]
fn flush_instruction() -> &'static str {
    // Leaf 7, sub-leaf 0: EBX bit 24 = clwb, bit 23 = clflushopt. An
    // unsupported leaf returns zeros, which reads as plain `clflush`.
    let leaf7 = core::arch::x86_64::__cpuid_count(7, 0);
    if leaf7.ebx & (1 << 24) != 0 {
        "clwb"
    } else if leaf7.ebx & (1 << 23) != 0 {
        "clflushopt"
    } else {
        "clflush"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn flush_instruction() -> &'static str {
    "fence-only"
}

extern "C" {
    fn statfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The outcome of [`pin`].
pub struct Pinned {
    /// CPUs the process could run on before.
    pub allowed: usize,
    /// The CPU it now runs on alone, if pinning worked.
    pub cpu: Option<usize>,
}

/// Pins the calling thread, and so every thread it starts later, to the
/// CPU it may run on that was idle longest over a short look at
/// `/proc/stat` (the highest-numbered of equals).
///
/// Every request crosses four threads (caller, reactor, worker, client
/// reader). On a small VM whose vCPUs share a host with other guests, a
/// wake-up aimed at another vCPU waits until the host runs that vCPU, so
/// with threads spread over two vCPUs the same code measured 145–372
/// sensor_ship ops/s in back-to-back runs, and 392–424 pinned. On one CPU
/// each hand-off is a context switch inside the guest. The idle check keeps
/// the run off a CPU that other load holds: with a fixed choice, a second
/// pinned process on the same CPU halved both.
pub fn pin() -> Pinned {
    // A 1024-CPU `cpu_set_t`.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Pinned {
            allowed: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu: None,
        };
    }
    let allowed: Vec<usize> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let before = idle_ticks();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let after = idle_ticks();
    let idle = |c: usize| {
        let get = |m: &std::collections::HashMap<usize, u64>| m.get(&c).copied().unwrap_or(0);
        get(&after).saturating_sub(get(&before))
    };
    let Some(cpu) = allowed.iter().copied().max_by_key(|&c| (idle(c), c)) else {
        return Pinned {
            allowed: 0,
            cpu: None,
        };
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    let ok = unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0;
    Pinned {
        allowed: allowed.len(),
        cpu: ok.then_some(cpu),
    }
}

/// Idle plus iowait ticks of each CPU so far, from `/proc/stat`.
fn idle_ticks() -> std::collections::HashMap<usize, u64> {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let cpu = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            let t: Vec<u64> = f.filter_map(|x| x.parse().ok()).collect();
            Some((cpu, t.get(3)? + t.get(4).unwrap_or(&0)))
        })
        .collect()
}

/// Name of the filesystem holding `path`, from `statfs(2)`'s `f_type`.
fn filesystem(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    let Ok(c) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux and starts with the
    // word-sized `f_type`.
    let mut buf = [0u64; 16];
    // SAFETY: `c` is NUL-terminated and `buf` is larger than `struct statfs`.
    if unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) } != 0 {
        return "unknown".into();
    }
    match buf[0] {
        0x0102_1994 => "tmpfs".into(),
        0xEF53 => "ext4".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlayfs".into(),
        other => format!("0x{other:x}"),
    }
}
