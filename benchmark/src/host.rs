//! What the numbers were measured on: the fingerprint every
//! `results.json` carries, peak memory, and the copy bandwidth that
//! stands in for a roofline.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

fn sys(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// `"2048K"` / `"260M"` as bytes.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// One data or unified cache of cpu0, as sysfs describes it.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheLevel {
    pub level: u32,
    pub bytes: usize,
    pub line: usize,
    pub ways: usize,
    /// CPUs sharing it, as sysfs lists them (`0`, `0-1`).
    pub shared_with: String,
}

/// The data caches of cpu0, innermost first; empty where sysfs has none.
pub fn caches() -> Vec<CacheLevel> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Some(kind) = sys(&format!("{dir}/type")) else {
            break;
        };
        if kind == "Instruction" {
            continue;
        }
        let field = |f: &str| sys(&format!("{dir}/{f}"));
        let (Some(level), Some(bytes)) = (
            field("level").and_then(|s| s.parse().ok()),
            field("size").as_deref().and_then(parse_size),
        ) else {
            continue;
        };
        out.push(CacheLevel {
            level,
            bytes,
            line: field("coherency_line_size")
                .and_then(|s| s.parse().ok())
                .unwrap_or(64),
            ways: field("ways_of_associativity")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            shared_with: field("shared_cpu_list").unwrap_or_default(),
        });
    }
    out
}

/// Threads the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `rustc --version` of the toolchain on the path, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint as a JSON object.
pub fn fingerprint_json() -> String {
    let caches: Vec<String> = caches()
        .iter()
        .map(|c| {
            format!(
                "{{\"level\":{},\"bytes\":{},\"line\":{},\"ways\":{},\"shared_cpu_list\":\"{}\"}}",
                c.level, c.bytes, c.line, c.ways, c.shared_with
            )
        })
        .collect();
    format!(
        "{{\"nproc\":{},\"caches\":[{}],\"rustc\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\"}}",
        nproc(),
        caches.join(","),
        rustc_version(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    sys("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes moved per second by `copy_from_slice` over `elems` doubles
/// (read + write counted), best effort at the host's streaming ceiling.
/// Returns GB/s samples, one per repetition.
pub fn copy_gbytes_per_s(elems: usize, reps: usize) -> Vec<f64> {
    let src = vec![1.0f64; elems];
    let mut dst = vec![0.0f64; elems];
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            (2 * 8 * elems) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn fingerprint_names_its_fields() {
        let f = fingerprint_json();
        for key in ["\"nproc\":", "\"caches\":[", "\"rustc\":\""] {
            assert!(f.contains(key), "{f}");
        }
    }
}
