//! The simulated device: CUDA-style kernel launches with cost accounting.
//!
//! A kernel is a closure executed once per *block* of a grid. Blocks run in
//! parallel on host threads (real speedup) while self-reporting operation
//! counts through [`BlockCtx`] (simulated time). The index code in
//! `smiler-index` launches kernels exactly along the paper's decomposition:
//! one block per sliding-window posting list, one block per CSG, one block
//! per k-selection.

use crate::backend::{Backend, BackendKind, NativeBackend, SimBackend};
use crate::cost::{BlockCost, CostModel, CpuSpec, GpuSpec, KernelStats};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which hardware the device simulates.
#[derive(Debug, Clone, Copy)]
enum DeviceModel {
    Gpu(GpuSpec),
    Cpu(CpuSpec),
}

impl DeviceModel {
    fn as_cost_model(&self) -> &dyn CostModel {
        match self {
            DeviceModel::Gpu(s) => s,
            DeviceModel::Cpu(s) => s,
        }
    }
}

/// Error returned when a block over-allocates shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemOverflow {
    /// Bytes the kernel asked for in total.
    pub requested: usize,
    /// Per-block budget of the device.
    pub capacity: usize,
}

impl std::fmt::Display for SharedMemOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shared memory overflow: requested {} of {} bytes", self.requested, self.capacity)
    }
}

impl std::error::Error for SharedMemOverflow {}

/// Per-block execution context. Kernels call the reporting methods as they
/// work; the counts feed the cost model after the launch.
#[derive(Debug)]
pub struct BlockCtx {
    block_id: usize,
    cost: BlockCost,
    shared_used: usize,
    shared_capacity: usize,
}

impl BlockCtx {
    fn new(block_id: usize, shared_capacity: usize) -> Self {
        BlockCtx { block_id, cost: BlockCost::default(), shared_used: 0, shared_capacity }
    }

    /// Index of this block within the grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Report `words` f64 reads from global memory.
    pub fn read_global(&mut self, words: u64) {
        self.cost.global_reads += words;
    }

    /// Report `words` f64 writes to global memory.
    pub fn write_global(&mut self, words: u64) {
        self.cost.global_writes += words;
    }

    /// Report `words` shared-memory accesses.
    pub fn access_shared(&mut self, words: u64) {
        self.cost.shared_accesses += words;
    }

    /// Report `n` floating-point operations executed by converged lanes.
    pub fn flops(&mut self, n: u64) {
        self.cost.flops += n;
    }

    /// Report `n` operations serialised by warp divergence (§4.4).
    pub fn diverge(&mut self, n: u64) {
        self.cost.divergent_ops += n;
    }

    /// Report a block-wide barrier (`__syncthreads()`).
    pub fn sync(&mut self) {
        self.cost.syncs += 1;
    }

    /// Reserve `bytes` of the block's shared memory, as a CUDA kernel would
    /// declare a `__shared__` array. The paper's compressed warping matrix
    /// (Appendix E) exists precisely to fit this budget.
    pub fn alloc_shared(&mut self, bytes: usize) -> Result<(), SharedMemOverflow> {
        let requested = self.shared_used + bytes;
        if requested > self.shared_capacity {
            return Err(SharedMemOverflow { requested, capacity: self.shared_capacity });
        }
        self.shared_used = requested;
        Ok(())
    }

    /// Shared memory currently reserved by this block.
    pub fn shared_used(&self) -> usize {
        self.shared_used
    }
}

/// Result of one kernel launch: the per-block results in grid order plus the
/// aggregated simulated-cost statistics.
#[derive(Debug, serde::Serialize)]
pub struct LaunchReport<R> {
    /// Per-block kernel results, indexed by block id.
    pub results: Vec<R>,
    /// Aggregated cost statistics of the launch.
    pub stats: KernelStats,
}

#[derive(Debug, Default)]
struct DeviceClock {
    sim_seconds: f64,
    saturated_seconds: f64,
    kernel_launches: u64,
    blocks_launched: u64,
    total: BlockCost,
}

/// A simulated compute device (GPU by default, or a CPU for the scan
/// baselines). The device keeps a cumulative simulated clock so a whole
/// experiment (many launches) can be timed with one call.
#[derive(Debug)]
pub struct Device {
    model: DeviceModel,
    backend: Box<dyn Backend>,
    shared_capacity: usize,
    memory_capacity: usize,
    memory_used: Mutex<usize>,
    clock: Mutex<DeviceClock>,
    host_threads: usize,
}

impl Device {
    /// A simulated GPU.
    pub fn gpu(spec: GpuSpec) -> Self {
        Device {
            shared_capacity: spec.shared_bytes_per_block,
            memory_capacity: spec.memory_bytes,
            model: DeviceModel::Gpu(spec),
            backend: Box::new(SimBackend),
            memory_used: Mutex::new(0),
            clock: Mutex::new(DeviceClock::default()),
            host_threads: default_host_threads(),
        }
    }

    /// A simulated CPU with the same launch interface, used by the
    /// FastCPUScan baseline so all Figure 7 methods share one cost
    /// framework.
    pub fn cpu(spec: CpuSpec) -> Self {
        Device {
            model: DeviceModel::Cpu(spec),
            backend: Box::new(SimBackend),
            shared_capacity: usize::MAX,
            memory_capacity: usize::MAX,
            memory_used: Mutex::new(0),
            clock: Mutex::new(DeviceClock::default()),
            host_threads: default_host_threads(),
        }
    }

    /// The default simulated GPU (the paper's GTX TITAN).
    pub fn default_gpu() -> Self {
        Device::gpu(GpuSpec::default())
    }

    /// A device that executes the same kernel decomposition natively:
    /// kernels run in parallel on host threads through the lane kernels,
    /// and launches are timed by the wall clock instead of the cost model.
    /// Results are bitwise-identical to the simulated device — only the
    /// timing statistics differ. Keeps the default GPU's shared-memory and
    /// memory budgets so degradation behaviour matches the simulator.
    pub fn native() -> Self {
        let mut dev = Device::default_gpu();
        dev.backend = Box::new(NativeBackend);
        dev
    }

    /// A device for the given [`BackendKind`]: the default simulated GPU
    /// for [`BackendKind::Sim`], [`Device::native`] for
    /// [`BackendKind::Native`]. This is the constructor CLI `--backend`
    /// flags route through.
    pub fn for_backend(kind: BackendKind) -> Self {
        match kind {
            BackendKind::Sim => Device::default_gpu(),
            BackendKind::Native => Device::native(),
        }
    }

    /// Which backend times this device's launches.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Restrict host-side parallelism (useful in tests and benches).
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads.max(1);
        self
    }

    /// Launch a kernel over `blocks` blocks. Blocks execute in parallel on
    /// host threads; results are returned in grid order.
    pub fn launch<R, F>(&self, blocks: usize, kernel: F) -> LaunchReport<R>
    where
        R: Send,
        F: Fn(&mut BlockCtx) -> R + Sync,
    {
        let mut slots: Vec<Option<(R, BlockCost)>> = Vec::with_capacity(blocks);
        slots.resize_with(blocks, || None);
        let next = AtomicUsize::new(0);
        let slots_mutex = Mutex::new(&mut slots);
        let workers = self.backend.workers(self.host_threads, blocks);
        let started = std::time::Instant::now();

        if workers == 1 {
            // Nothing to gain from a scoped worker — single-block grid, or
            // a single-core host where blocks serialise anyway. Run the
            // grid inline on the calling thread: spawning a thread costs
            // more than many of the tiny hot-path launches.
            let mut guard = slots_mutex.lock();
            for id in 0..blocks {
                let mut ctx = BlockCtx::new(id, self.shared_capacity);
                let result = kernel(&mut ctx);
                guard[id] = Some((result, ctx.cost));
            }
        } else if blocks > 0 {
            // Each worker drains block ids and buffers results locally,
            // taking the shared lock once per batch. The calling thread is
            // worker zero — only `workers − 1` threads are spawned, so the
            // common two-worker hot-path launch costs one spawn, not two.
            let run_worker = || {
                let mut local: Vec<(usize, R, BlockCost)> = Vec::new();
                loop {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    if id >= blocks {
                        break;
                    }
                    let mut ctx = BlockCtx::new(id, self.shared_capacity);
                    let result = kernel(&mut ctx);
                    local.push((id, result, ctx.cost));
                    if local.len() >= 64 {
                        let mut guard = slots_mutex.lock();
                        for (i, r, c) in local.drain(..) {
                            guard[i] = Some((r, c));
                        }
                    }
                }
                let mut guard = slots_mutex.lock();
                for (i, r, c) in local {
                    guard[i] = Some((r, c));
                }
            };
            crossbeam::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(|_| run_worker());
                }
                run_worker();
            })
            .expect("kernel worker panicked");
        }

        let wall_seconds = started.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(blocks);
        let mut costs = Vec::with_capacity(blocks);
        let mut total = BlockCost::default();
        for slot in slots {
            let (r, c) = slot.expect("every block must have run");
            total.merge(&c);
            costs.push(c);
            results.push(r);
        }
        let (sim_seconds, saturated_seconds) =
            self.backend.account(self.model.as_cost_model(), &costs, wall_seconds);
        let stats = KernelStats { blocks: blocks as u64, total, sim_seconds, saturated_seconds };

        if smiler_obs::enabled() {
            smiler_obs::count("gpu.launches", "", 1);
            smiler_obs::count("gpu.blocks", "", blocks as u64);
            smiler_obs::observe("gpu.sim_seconds", "", sim_seconds);
            smiler_obs::event("gpu.launch", "", &stats);
        }

        let mut clock = self.clock.lock();
        clock.sim_seconds += sim_seconds;
        clock.saturated_seconds += saturated_seconds;
        clock.kernel_launches += 1;
        clock.blocks_launched += blocks as u64;
        clock.total.merge(&total);

        LaunchReport { results, stats }
    }

    /// Cumulative simulated seconds across all launches since the last
    /// [`Device::reset_clock`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.clock.lock().sim_seconds
    }

    /// Cumulative device-saturated seconds (see
    /// [`KernelStats::saturated_seconds`]) since the last reset. This is
    /// the meaningful aggregate when simulating a large sensor fleet that
    /// keeps every SM busy — the paper's operating point.
    pub fn saturated_seconds(&self) -> f64 {
        self.clock.lock().saturated_seconds
    }

    /// Number of kernel launches since the last reset.
    pub fn kernel_launches(&self) -> u64 {
        self.clock.lock().kernel_launches
    }

    /// Cumulative blocks across all launches since the last reset. Together
    /// with [`Device::kernel_launches`] this gives the mean grid width — the
    /// figure of merit for the fleet-batched search of a step, which should
    /// grow grids rather than multiply launches.
    pub fn blocks_launched(&self) -> u64 {
        self.clock.lock().blocks_launched
    }

    /// Per-block shared-memory budget in bytes. Callers batching many
    /// sensors into one grid use this to pre-screen kernels that could not
    /// fit, so an oversized request degrades before the launch instead of
    /// failing inside it.
    pub fn shared_capacity(&self) -> usize {
        self.shared_capacity
    }

    /// Reset the cumulative clock (between experiment phases).
    pub fn reset_clock(&self) {
        *self.clock.lock() = DeviceClock::default();
    }

    /// Try to reserve `bytes` of device memory (index residency, Fig 12c).
    /// Returns `false` without reserving when the capacity would be
    /// exceeded.
    pub fn try_reserve_memory(&self, bytes: usize) -> bool {
        let mut used = self.memory_used.lock();
        match used.checked_add(bytes) {
            Some(new_used) if new_used <= self.memory_capacity => {
                *used = new_used;
                true
            }
            _ => false,
        }
    }

    /// Release previously reserved device memory.
    pub fn release_memory(&self, bytes: usize) {
        let mut used = self.memory_used.lock();
        *used = used.saturating_sub(bytes);
    }

    /// Bytes currently reserved.
    pub fn memory_used(&self) -> usize {
        *self.memory_used.lock()
    }

    /// Total device memory capacity in bytes.
    pub fn memory_capacity(&self) -> usize {
        self.memory_capacity
    }
}

fn default_host_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_returns_results_in_grid_order() {
        let dev = Device::default_gpu();
        let report = dev.launch(100, |ctx| ctx.block_id() * 2);
        assert_eq!(report.results.len(), 100);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(*r, i * 2);
        }
    }

    #[test]
    fn zero_blocks_is_a_noop() {
        let dev = Device::default_gpu();
        let report = dev.launch(0, |_| 0u8);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.sim_seconds, 0.0);
        assert_eq!(dev.kernel_launches(), 1);
    }

    #[test]
    fn costs_accumulate_on_device_clock() {
        let dev = Device::default_gpu();
        dev.launch(10, |ctx| ctx.flops(1000));
        let t1 = dev.elapsed_seconds();
        assert!(t1 > 0.0);
        dev.launch(10, |ctx| ctx.flops(1000));
        assert!((dev.elapsed_seconds() - 2.0 * t1).abs() < 1e-15);
        dev.reset_clock();
        assert_eq!(dev.elapsed_seconds(), 0.0);
        assert_eq!(dev.kernel_launches(), 0);
    }

    #[test]
    fn blocks_launched_accumulates_grid_widths() {
        let dev = Device::default_gpu();
        dev.launch(10, |_| ());
        dev.launch(3, |_| ());
        assert_eq!(dev.kernel_launches(), 2);
        assert_eq!(dev.blocks_launched(), 13);
        dev.reset_clock();
        assert_eq!(dev.blocks_launched(), 0);
    }

    #[test]
    fn stats_sum_block_counts() {
        let dev = Device::default_gpu();
        let report = dev.launch(5, |ctx| {
            ctx.read_global(10);
            ctx.write_global(2);
            ctx.flops(100);
            ctx.sync();
        });
        assert_eq!(report.stats.blocks, 5);
        assert_eq!(report.stats.total.global_reads, 50);
        assert_eq!(report.stats.total.global_writes, 10);
        assert_eq!(report.stats.total.flops, 500);
        assert_eq!(report.stats.total.syncs, 5);
    }

    #[test]
    fn shared_memory_budget_enforced() {
        let dev = Device::default_gpu();
        let report = dev.launch(1, |ctx| {
            assert!(ctx.alloc_shared(16 * 1024).is_ok());
            assert!(ctx.alloc_shared(16 * 1024).is_ok());
            // 48 KiB budget: the third 32 KiB must fail.
            let err = ctx.alloc_shared(32 * 1024).unwrap_err();
            assert_eq!(err.capacity, 48 * 1024);
            ctx.shared_used()
        });
        assert_eq!(report.results[0], 32 * 1024);
    }

    #[test]
    fn cpu_device_is_slower_than_gpu_on_parallel_work() {
        let gpu = Device::default_gpu();
        let cpu = Device::cpu(CpuSpec::default());
        // Compute-bound work, like DTW verification: the GPU advantage
        // comes from arithmetic throughput, not bandwidth.
        let work = |ctx: &mut BlockCtx| {
            ctx.read_global(100);
            ctx.flops(50_000);
        };
        let g = gpu.launch(1000, work).stats.sim_seconds;
        let c = cpu.launch(1000, work).stats.sim_seconds;
        assert!(c > 10.0 * g, "cpu {c} vs gpu {g}");
    }

    #[test]
    fn memory_reservation_respects_capacity() {
        let spec = GpuSpec { memory_bytes: 1000, ..Default::default() };
        let dev = Device::gpu(spec);
        assert!(dev.try_reserve_memory(600));
        assert!(!dev.try_reserve_memory(600));
        assert_eq!(dev.memory_used(), 600);
        dev.release_memory(300);
        assert!(dev.try_reserve_memory(600));
        assert_eq!(dev.memory_used(), 900);
        dev.release_memory(10_000);
        assert_eq!(dev.memory_used(), 0);
    }

    #[test]
    fn native_backend_matches_sim_results_and_counts() {
        let sim = Device::default_gpu();
        let native = Device::native();
        assert_eq!(sim.backend_kind(), BackendKind::Sim);
        assert_eq!(native.backend_kind(), BackendKind::Native);
        let kernel = |ctx: &mut BlockCtx| {
            ctx.read_global(7);
            ctx.flops(42);
            (ctx.block_id() as f64).sqrt()
        };
        let a = sim.launch(33, kernel);
        let b = native.launch(33, kernel);
        // Same results, same operation totals — only the clocks differ:
        // sim charges the cost model, native reports wall time.
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats.total, b.stats.total);
        assert!(a.stats.sim_seconds > 0.0);
    }

    #[test]
    fn for_backend_picks_the_requested_backend() {
        assert_eq!(Device::for_backend(BackendKind::Sim).backend_kind(), BackendKind::Sim);
        assert_eq!(Device::for_backend(BackendKind::Native).backend_kind(), BackendKind::Native);
    }

    #[test]
    fn parallel_launch_matches_serial_results() {
        let serial = Device::default_gpu().with_host_threads(1);
        let parallel = Device::default_gpu().with_host_threads(8);
        let kernel = |ctx: &mut BlockCtx| {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i + ctx.block_id() as u64);
            }
            ctx.flops(100);
            acc
        };
        let a = serial.launch(257, kernel);
        let b = parallel.launch(257, kernel);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats);
    }
}
