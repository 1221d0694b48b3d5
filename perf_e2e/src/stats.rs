//! Small numeric helpers: medians, percentiles, seed derivation, and
//! the process's peak resident memory.

/// Median of `values` (the mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `0` when empty.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The `index`-th seed of stream `stream` under the run's master seed
/// (splitmix64 finaliser), so every trial's inputs follow from the one
/// `--seed` argument.
pub fn derive_seed(master: u64, stream: u64, index: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory of this process so far, in MiB: `VmHWM` less
/// the file-backed and shared pages resident now. Those are the
/// program image, whose resident share varies from run to run with the
/// page cache; what is left is the peak of the data the process holds.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = |field: &str| -> Result<f64, String> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no {field} line in /proc/self/status"))
    };
    Ok((kib("VmHWM:")? - kib("RssFile:")? - kib("RssShmem:")?) / 1024.0)
}

/// CPU time the hypervisor has stolen from this machine's CPUs since
/// boot, in seconds: the `steal` column of the `cpu` line of
/// `/proc/stat`, summed over CPUs, in `USER_HZ` (100 per second) ticks.
pub fn stolen_s() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    stat.lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks / 100.0)
        .ok_or_else(|| std::io::Error::other("no steal column in /proc/stat"))
}

/// `num / den`, or `0.0` when the ratio is undefined.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num.is_finite() {
        num / den
    } else {
        0.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// CPU time this process's threads have used, exited ones included, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

extern "C" {
    fn sched_getcpu() -> std::os::raw::c_int;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> std::os::raw::c_int;
}

/// Pins the calling thread, and the threads it starts later, to the CPU
/// it is running on now.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A 1024-CPU mask, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond a 1024-CPU mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
