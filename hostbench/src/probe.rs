//! Host probes read from `/proc`, with no dependency beyond `std`: peak
//! resident set (`VmHWM`) and process CPU time (`utime + stime`).

use std::fs;

/// Peak resident set of this process in MiB, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the `VmHWM` watermark to the current resident set (Linux
/// `clear_refs` value 5), so the peak covers only what runs afterwards.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Clock ticks per second for `/proc/self/stat`, from the `AT_CLKTCK`
/// entry of the auxiliary vector (100 when it cannot be read).
fn clock_ticks() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in auxv.chunks_exact(16) {
        let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("auxv entries are two words"));
        let (key, value) = (word(&pair[..8]), word(&pair[8..]));
        if key == AT_CLKTCK && value > 0 {
            return value as f64;
        }
    }
    100.0
}

/// CPU seconds (user + system, all threads) this process has used so far,
/// from `/proc/self/stat`. 0 off Linux.
pub fn cpu_seconds() -> f64 {
    use std::sync::OnceLock;
    static TICKS: OnceLock<f64> = OnceLock::new();
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / *TICKS.get_or_init(clock_ticks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_under_load() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
