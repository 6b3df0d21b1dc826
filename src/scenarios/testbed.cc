#include "testbed.hh"

#include <cassert>

namespace v3sim::scenarios
{

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Local: return "Local";
      case Backend::Kdsa: return "kDSA";
      case Backend::Wdsa: return "wDSA";
      case Backend::Cdsa: return "cDSA";
      case Backend::Iscsi: return "iSCSI";
    }
    return "?";
}

dsa::DsaImpl
backendImpl(Backend backend)
{
    switch (backend) {
      case Backend::Kdsa: return dsa::DsaImpl::Kdsa;
      case Backend::Wdsa: return dsa::DsaImpl::Wdsa;
      case Backend::Cdsa: return dsa::DsaImpl::Cdsa;
      case Backend::Local:
      case Backend::Iscsi: break;
    }
    assert(false && "backend has no DSA implementation");
    return dsa::DsaImpl::Kdsa;
}

HostParams
HostParams::midSize()
{
    HostParams params;
    params.cpus = 4;
    params.costs = osmodel::HostCosts::midSize();
    return params;
}

HostParams
HostParams::large()
{
    HostParams params;
    params.cpus = 32;
    params.costs = osmodel::HostCosts::large();
    return params;
}

StorageParams
StorageParams::midSize()
{
    StorageParams params;
    params.v3_nodes = 4;
    params.disks_per_node = 15;
    params.disk_spec = disk::DiskSpec::scsi10k();
    // Table 2: 1.6 GB V3 cache per node, scaled by kTpccScale.
    params.cache_bytes_per_node =
        1600ull * util::kMiB / kTpccScale;
    params.local_disks = 176; // Table 1
    return params;
}

StorageParams
StorageParams::large()
{
    StorageParams params;
    params.v3_nodes = 8;
    params.disks_per_node = 80;
    params.disk_spec = disk::DiskSpec::fc15k();
    // Table 2: 2.4 GB V3 cache per node, scaled.
    params.cache_bytes_per_node =
        2400ull * util::kMiB / kTpccScale;
    params.local_disks = 640; // Table 1
    return params;
}

Testbed::Testbed(Backend backend, HostParams host_params,
                 StorageParams storage_params,
                 dsa::DsaConfig dsa_config, uint64_t seed)
    : backend_(backend),
      storage_params_(storage_params),
      sim_(seed),
      fabric_(sim_.queue())
{
    faults_ = std::make_unique<vi::FaultInjector>(sim_, fabric_);
    host_ = std::make_unique<osmodel::Node>(
        sim_, osmodel::NodeConfig{"db", host_params.cpus,
                                  host_params.costs,
                                  host_params.phantom_memory});

    if (backend_ == Backend::Local) {
        const int count =
            storage_params_.local_disks > 0
                ? storage_params_.local_disks
                : storage_params_.v3_nodes *
                      storage_params_.disks_per_node;
        std::vector<disk::Disk *> disks;
        for (int i = 0; i < count; ++i) {
            local_disks_.push_back(std::make_unique<disk::Disk>(
                sim_, storage_params_.disk_spec, sim_.forkRng(),
                "local.d" + std::to_string(i),
                disk::SchedPolicy::Elevator,
                host_params.phantom_memory));
            disks.push_back(local_disks_.back().get());
        }
        local_volume_ = std::make_unique<disk::StripeVolume>(
            disks, storage_params_.stripe_unit);
        local_ = std::make_unique<dsa::LocalBackend>(*host_,
                                                     *local_volume_);
        device_ = local_.get();
        return;
    }

    if (backend_ == Backend::Iscsi) {
        // Rival transport: the same storage-node hardware as the V3
        // branch below (disks, cache size and policy, CPU count),
        // reached through one iSCSI/TCP session per node instead of
        // a VI connection. The host needs no VI NICs: each initiator
        // attaches a plain fabric port.
        assert(!storage_params_.mirrored &&
               "mirroring is a DSA-backend feature");
        std::vector<dsa::BlockDevice *> children;
        for (int n = 0; n < storage_params_.v3_nodes; ++n) {
            iscsi::TargetConfig target_config;
            target_config.name = "tgt." + std::to_string(n);
            target_config.cache_bytes =
                storage_params_.cache_bytes_per_node;
            target_config.cache_policy = storage_params_.cache_policy;
            target_config.phantom_memory = host_params.phantom_memory;
            target_config.admission = storage_params_.admission;
            auto target = std::make_unique<iscsi::Target>(
                sim_, fabric_, target_config);
            auto disks = target->diskManager().addDisks(
                storage_params_.disk_spec,
                target_config.name + ".d",
                storage_params_.disks_per_node,
                host_params.phantom_memory);
            const uint32_t volume =
                target->volumeManager().addStripedVolume(
                    disks, storage_params_.stripe_unit);
            target->start();

            iscsi::InitiatorConfig init_config;
            init_config.volume = volume;
            init_config.max_outstanding =
                storage_params_.request_credits;
            iscsi_initiators_.push_back(
                std::make_unique<iscsi::Initiator>(*host_, fabric_,
                                                   init_config));
            children.push_back(iscsi_initiators_.back().get());
            iscsi_targets_.push_back(std::move(target));
        }
        striped_ = std::make_unique<dsa::StripedDevice>(
            children, storage_params_.stripe_unit);
        device_ = striped_.get();
        return;
    }

    // V3 backend: one server per storage node, one client NIC per
    // server, one DSA connection per pair; the database volume
    // stripes across nodes.
    std::vector<dsa::BlockDevice *> children;
    for (int n = 0; n < storage_params_.v3_nodes; ++n) {
        storage::V3ServerConfig server_config;
        server_config.name = "v3." + std::to_string(n);
        server_config.cache_bytes =
            storage_params_.cache_bytes_per_node;
        server_config.cache_policy = storage_params_.cache_policy;
        server_config.request_credits =
            storage_params_.request_credits;
        server_config.staging_slots = storage_params_.staging_slots;
        server_config.phantom_memory = host_params.phantom_memory;
        server_config.admission = storage_params_.admission;
        auto server = std::make_unique<storage::V3Server>(
            sim_, fabric_, server_config);
        auto disks = server->diskManager().addDisks(
            storage_params_.disk_spec,
            server_config.name + ".d",
            storage_params_.disks_per_node,
            host_params.phantom_memory);
        const uint32_t volume =
            server->volumeManager().addStripedVolume(
                disks, storage_params_.stripe_unit);
        server->start();

        nics_.push_back(std::make_unique<vi::ViNic>(
            sim_, fabric_, host_->memory(),
            "db.nic" + std::to_string(n)));
        clients_.push_back(std::make_unique<dsa::DsaClient>(
            backendImpl(backend_), *host_, *nics_.back(),
            server->nic().port(), volume, dsa_config));
        children.push_back(clients_.back().get());
        servers_.push_back(std::move(server));
    }

    if (storage_params_.mirrored) {
        // RAID-10: adjacent nodes pair into mirrors, the volume
        // stripes across the pairs.
        assert(storage_params_.v3_nodes % 2 == 0 &&
               "mirroring pairs nodes; v3_nodes must be even");
        std::vector<dsa::BlockDevice *> stripe_children;
        for (size_t pair = 0; pair + 1 < children.size(); pair += 2) {
            dsa::MirrorConfig mirror_config = storage_params_.mirror;
            mirror_config.name =
                "m" + std::to_string(pair / 2);
            std::vector<dsa::MirrorReplica> legs;
            legs.push_back(dsa::MirrorReplica::forClient(
                *clients_[pair]));
            legs.push_back(dsa::MirrorReplica::forClient(
                *clients_[pair + 1]));
            mirrors_.push_back(std::make_unique<dsa::MirroredDevice>(
                sim_, host_->memory(), std::move(legs),
                mirror_config));
            stripe_children.push_back(mirrors_.back().get());
        }
        striped_ = std::make_unique<dsa::StripedDevice>(
            stripe_children, storage_params_.stripe_unit);
    } else {
        striped_ = std::make_unique<dsa::StripedDevice>(
            children, storage_params_.stripe_unit);
    }
    device_ = striped_.get();

    if (storage_params_.cluster) {
        // Promote the RAID-10 composition into a volume service:
        // a metadata service describing the geometry (genesis map,
        // every node Active), heartbeat detection over the nodes,
        // and the client-side directory routing epoch-checked I/O.
        assert(storage_params_.mirrored &&
               "cluster mode runs over node-level mirrors");
        cluster::PlacementMap genesis;
        for (size_t pair = 0; pair + 1 < servers_.size(); pair += 2) {
            cluster::ShardView shard;
            shard.replicas.push_back(cluster::ReplicaView{
                static_cast<int>(pair), cluster::ReplicaState::Active});
            shard.replicas.push_back(cluster::ReplicaView{
                static_cast<int>(pair + 1),
                cluster::ReplicaState::Active});
            genesis.shards.push_back(std::move(shard));
        }
        meta_service_ = std::make_unique<cluster::MetaService>(
            sim_, storage_params_.meta, std::move(genesis));

        std::vector<cluster::HeartbeatPeer> peers;
        for (auto &server : servers_) {
            storage::V3Server *srv = server.get();
            peers.push_back(cluster::HeartbeatPeer{
                srv->config().name,
                [srv] { return !srv->crashed(); },
                [srv] { return srv->bootEpoch(); }});
        }
        heartbeat_ = std::make_unique<cluster::HeartbeatMonitor>(
            sim_, storage_params_.heartbeat, std::move(peers));

        std::vector<dsa::MirroredDevice *> shard_mirrors;
        for (auto &mirror : mirrors_)
            shard_mirrors.push_back(mirror.get());
        directory_ = std::make_unique<cluster::VolumeDirectory>(
            sim_, *meta_service_, *heartbeat_,
            std::move(shard_mirrors), *striped_,
            storage_params_.directory);
        device_ = directory_.get();

        // Whole-box fault targets: node i and, on the first
        // meta.replicas boxes, its co-located metadata replica.
        for (size_t n = 0; n < servers_.size(); ++n) {
            auto target = std::make_unique<vi::CompositeFaultTarget>();
            target->add(*servers_[n]);
            if (n < static_cast<size_t>(meta_service_->replicaCount()))
                target->add(meta_service_->replica(
                    static_cast<int>(n)));
            composite_targets_.push_back(std::move(target));
        }
    }
}

Testbed::~Testbed() = default;

bool
Testbed::connectAll()
{
    if (backend_ == Backend::Local)
        return true;
    if (backend_ == Backend::Iscsi) {
        bool all_ok = true;
        int pending = static_cast<int>(iscsi_initiators_.size());
        for (size_t i = 0; i < iscsi_initiators_.size(); ++i) {
            sim::spawn([](iscsi::Initiator &init, net::PortId port,
                          bool &ok, int &remaining) -> sim::Task<> {
                if (!co_await init.connect(port))
                    ok = false;
                --remaining;
            }(*iscsi_initiators_[i], iscsi_targets_[i]->port(),
              all_ok, pending));
        }
        sim_.run();
        return all_ok && pending == 0;
    }
    bool all_ok = true;
    int pending = static_cast<int>(clients_.size());
    for (auto &client : clients_) {
        sim::spawn([](dsa::DsaClient &c, bool &ok,
                      int &remaining) -> sim::Task<> {
            if (!co_await c.connect())
                ok = false;
            --remaining;
        }(*client, all_ok, pending));
    }
    sim_.run();
    return all_ok && pending == 0;
}

std::vector<vi::NodeFaultTarget *>
Testbed::nodeTargets()
{
    std::vector<vi::NodeFaultTarget *> out;
    for (auto &target : composite_targets_)
        out.push_back(target.get());
    return out;
}

std::vector<storage::BlockCache *>
Testbed::caches()
{
    std::vector<storage::BlockCache *> out;
    for (auto &server : servers_)
        if (storage::BlockCache *cache = server->cache())
            out.push_back(cache);
    for (auto &target : iscsi_targets_)
        if (storage::BlockCache *cache = target->cache())
            out.push_back(cache);
    return out;
}

double
Testbed::serverCacheHitRatio() const
{
    uint64_t hits = 0, misses = 0;
    for (storage::BlockCache *cache :
         const_cast<Testbed *>(this)->caches()) {
        hits += cache->hits();
        misses += cache->misses();
    }
    const uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
Testbed::diskUtilization() const
{
    double sum = 0;
    int count = 0;
    for (const auto &server : servers_) {
        auto &manager =
            const_cast<storage::V3Server &>(*server).diskManager();
        for (size_t i = 0; i < manager.diskCount(); ++i) {
            sum += manager.disk(i).utilization();
            ++count;
        }
    }
    for (const auto &target : iscsi_targets_) {
        auto &manager =
            const_cast<iscsi::Target &>(*target).diskManager();
        for (size_t i = 0; i < manager.diskCount(); ++i) {
            sum += manager.disk(i).utilization();
            ++count;
        }
    }
    for (const auto &d : local_disks_) {
        sum += d->utilization();
        ++count;
    }
    return count ? sum / count : 0.0;
}

uint64_t
Testbed::hostInterrupts() const
{
    return const_cast<osmodel::Node &>(*host_)
        .interrupts()
        .interruptCount();
}

void
Testbed::resetStats()
{
    // One registry-wide epoch replaces the old per-component
    // resetStats() fan-out: every registered metric (clients,
    // servers, caches, disks, NICs, CPU pools) restarts here.
    sim_.metrics().resetEpoch();
}

} // namespace v3sim::scenarios
