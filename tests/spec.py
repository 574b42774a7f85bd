"""An executable spec of the paper's Figure 1 engine: the engine tests' oracle.

A labelled flow's packet moves its CDB record's last arrival and lambda and
is forwarded on its label; a FIN/RST, or a hit on a record older than
``reclassify_interval`` (Section 4.6), removes the record. Other flows buffer
until ``b`` (+ ``T`` + the random-skip range) bytes, a close or
``buffer_timeout`` of silence (Section 4.4.1), and are classified then; every
``purge_trigger_flows``-th insert sweeps inactive records (Section 4.5).
"""

from repro.core.headers import strip_app_header
from repro.core.labels import ALL_NATURES
from repro.net.flow import FlowKey


class Figure1:
    """Figure 1 at ``max_batch=1``: what every drain schedule must conclude."""

    def __init__(self, classifier, config, rng=None):
        self.classifier, self.config, self.rng = classifier, config, rng
        self.cdb = {}  # key -> [label, last arrival, lambda, classified at]
        self.pending = {}  # key -> [first, last arrival, payload, packets]
        names = "packets data_packets cdb_hits classifications unclassifiable"
        self.stats = dict.fromkeys(names.split(), 0)  # EngineStats fields, by name
        self.stats["per_class"] = dict.fromkeys(ALL_NATURES, 0)
        self.removed = {"fin": 0, "inactive": 0, "reclassified": 0}
        self.inserted = self.since_sweep = 0
        self.classified = []  # ClassifiedFlow fields, in label order
        self.queues = {nature: [] for nature in ALL_NATURES}
        self.series = []  # (time, CDB size), as process_source samples

    def remove(self, key, reason):
        del self.cdb[key]
        self.removed[reason] += 1

    def packet(self, packet):
        config, stats, now = self.config, self.stats, packet.timestamp
        key, payload = FlowKey.of_packet(packet), packet.payload
        close = packet.is_tcp and (packet.transport.fin or packet.transport.rst)
        stats["packets"] += 1
        stats["data_packets"] += bool(payload)
        record = self.cdb.get(key)
        if record and 0 < config.reclassify_interval < now - record[3]:
            self.remove(key, "reclassified")
        elif record:
            stats["cdb_hits"] += 1
            record[2] = now - record[1] if now > record[1] else record[2]
            record[1] = now
            self.queues[record[0]] += [packet] if payload else []
            if close:
                self.remove(key, "fin")
            return record[0]
        flow = self.pending.setdefault(key, [now, now, bytearray(), []])
        flow[1] = now
        flow[2] += payload
        flow[3] += [packet] if payload else []
        target = config.buffer_size + config.header_threshold + config.random_skip_max
        if len(flow[2]) < target and not close:
            return None
        label = self.ready(key, now)
        if close and label is not None:
            self.remove(key, "fin")
        return label

    def ready(self, key, now):
        """Classify a ready flow: its label, or None when unclassifiable."""
        first, _, raw, packets = self.pending.pop(key)
        config, widest = self.config, self.classifier.feature_set.max_width
        window, protocol = bytes(raw), None
        if config.random_skip_max:
            skip = int(self.rng.integers(0, config.random_skip_max + 1))
            window = window[skip:] if len(window) - skip >= widest else window
        if config.strip_known_headers:
            protocol, window = strip_app_header(window)
        skip = 0 if protocol else config.header_threshold  # T: unknown header
        window = window[skip:] if len(window) - skip >= widest else window
        window = window[: config.buffer_size]
        if len(window) < widest:
            self.stats["unclassifiable"] += 1
            return None
        [label] = self.classifier.classify_buffers([window])
        self.cdb[key] = [label, now, 0.5, now]  # the paper's lambda until a hit
        self.inserted, self.since_sweep = self.inserted + 1, self.since_sweep + 1
        if self.since_sweep == config.purge_trigger_flows:
            n, cdb, self.since_sweep = config.purge_coefficient, self.cdb, 0
            self.cdb = {k: r for k, r in cdb.items() if now - r[1] <= n * r[2]}
            self.removed["inactive"] += len(cdb) - len(self.cdb)
        self.stats["classifications"] += 1
        self.stats["per_class"][label] += 1
        self.classified.append((key, label, now, now - first, len(raw), protocol))
        self.queues[label].extend(packets)
        return label

    def flush(self, now, final=False):
        """Classify the flows silent beyond the timeout (all if ``final``)."""
        timeout = self.config.buffer_timeout
        expired = [k for k, f in self.pending.items() if final or f[1] + timeout < now]
        for key in expired:  # in first-arrival order
            self.ready(key, now)
        return len(expired)

    def run(self, packets, sample_interval=1.0):
        """``process_source``: flush and sample the CDB size on the packet clock."""
        next_sample = final = None
        for packet in packets:
            self.packet(packet)
            final = packet.timestamp
            if next_sample is None:
                next_sample = final + sample_interval
            elif final >= next_sample:
                self.flush(final)
                while final >= next_sample:
                    self.series.append((next_sample, len(self.cdb)))
                    next_sample += sample_interval
        if final is not None:
            self.flush(final, final=True)
            if self.series and self.series[-1][0] == final:
                self.series.pop()
            self.series.append((final, len(self.cdb)))
        return self
